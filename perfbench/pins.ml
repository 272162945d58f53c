(* Known answers the benchmark cannot recompute independently. The
   three bound-limited corpus entries hit the BMC unrolling bound, so
   their behavior sets are bounded under-approximations with no
   explicit-engine counterpart; their {!Memmodel.Fingerprint.behaviors}
   digests are pinned here, per mode. *)

type bmc_pin = { arm_digest : string; sc_digest : string }

let bmc_bound_limited =
  [ ( "vm-boot-state",
      { arm_digest = "0ad2f87c4aea5e398fd0e1a55a227c76";
        sc_digest = "0ad2f87c4aea5e398fd0e1a55a227c76" } );
    ( "share-page",
      { arm_digest = "e46710cf3dde4c293b3856bbb4b4c032";
        sc_digest = "e46710cf3dde4c293b3856bbb4b4c032" } );
    ( "read-outside-lock",
      { arm_digest = "6d7280af352f53e1f087b58e23774751";
        sc_digest = "6d7280af352f53e1f087b58e23774751" } ) ]
