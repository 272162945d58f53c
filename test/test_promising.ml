(* Tests for the Promising Arm executor: the architectural ordering
   constraints (coherence, data/address dependencies, barriers,
   acquire/release), the promise machinery with certification, and — as a
   property — the soundness direction of the wDRF theorem: every SC
   behavior is also a Promising Arm behavior. *)

open Memmodel

let obs_r tid r = Prog.Obs_reg (tid, Reg.v r)

let cfg ?(mp = 1) ?(lf = 4) () =
  { Promising.default_config with max_promises = mp; loop_fuel = lf;
    cert_depth = 40 }

let normals (b : Behavior.t) =
  Behavior.Outcome_set.filter (fun o -> o.Behavior.status = Behavior.Normal) b

let run_litmus name t =
  Alcotest.test_case name `Quick (fun () ->
      let r = Litmus.run t in
      if not r.Litmus.as_expected then
        Alcotest.failf "%s: unexpected result:@.%a" name Litmus.pp_result r)

let litmus_cases =
  List.map
    (fun t -> run_litmus t.Litmus.prog.Prog.name t)
    Paper_examples.all

let test_lb_needs_promises () =
  (* Example 1 requires a promise: with the promise budget at 0 the
     relaxed outcome must disappear *)
  let t = Paper_examples.example1 in
  let r0 = Litmus.run ~config:(cfg ~mp:0 ()) t in
  let r1 = Litmus.run ~config:(cfg ~mp:1 ()) t in
  Alcotest.(check bool) "no promises: unreachable" false r0.Litmus.rm_sat;
  Alcotest.(check bool) "one promise: reachable" true r1.Litmus.rm_sat

let test_sb_needs_no_promises () =
  (* store buffering comes from stale reads alone *)
  let r = Litmus.run ~config:(cfg ~mp:0 ()) Paper_examples.sb in
  Alcotest.(check bool) "reachable without promises" true r.Litmus.rm_sat

let test_coherence_within_thread () =
  (* CoWW: two stores to one location by one thread are ordered *)
  let prog =
    Prog.make ~name:"coww"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.store (Expr.at "x") (Expr.c 2) ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "final value is 2" true
    (Behavior.satisfiable (fun g -> g (Prog.Obs_loc (Loc.v "x")) = Some 2) b);
  Alcotest.(check int) "no other outcome" 1 (Behavior.cardinal (normals b))

let test_read_own_write () =
  (* a thread must see its own program-order-earlier store *)
  let prog =
    Prog.make ~name:"rown"
      ~observables:[ obs_r 0 "r" ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "x") (Expr.c 3);
            Instr.load (Reg.v "r") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check int) "singleton" 1 (Behavior.cardinal (normals b));
  Alcotest.(check bool) "reads 3" true
    (Behavior.satisfiable (fun g -> g (obs_r 0 "r") = Some 3) b)

let test_rmw_atomicity_rm () =
  (* fetch_and_inc stays atomic under the relaxed model: the sum of two
     increments is always 2 *)
  let bump tid =
    Prog.thread tid [ Instr.fetch_and_inc (Reg.v "old") (Expr.at "c") ]
  in
  let prog =
    Prog.make ~name:"faa-rm"
      ~observables:[ Prog.Obs_loc (Loc.v "c") ]
      [ bump 1; bump 2 ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check int) "one outcome" 1 (Behavior.cardinal (normals b));
  Alcotest.(check bool) "c = 2" true
    (Behavior.satisfiable (fun g -> g (Prog.Obs_loc (Loc.v "c")) = Some 2) b)

let test_dmb_ld_orders_reads () =
  (* MP with dmb-st on the writer and dmb-ld on the reader: forbidden *)
  let prog =
    Prog.make ~name:"mp-dmbst-dmbld"
      ~observables:[ obs_r 2 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.dmb_st;
            Instr.store (Expr.at "flag") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r0") (Expr.at "flag");
            Instr.dmb_ld;
            Instr.load (Reg.v "r1") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "stale read forbidden" false
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "r0") = Some 1 && g (obs_r 2 "r1") = Some 0)
       b)

let test_dmb_st_alone_insufficient_for_reader () =
  (* MP with dmb-st on the writer but nothing on the reader: the reader's
     loads may still be satisfied out of order *)
  let prog =
    Prog.make ~name:"mp-dmbst-only"
      ~observables:[ obs_r 2 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.dmb_st;
            Instr.store (Expr.at "flag") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r0") (Expr.at "flag");
            Instr.load (Reg.v "r1") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "stale read allowed" true
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "r0") = Some 1 && g (obs_r 2 "r1") = Some 0)
       b)

let test_addr_dependency_orders () =
  (* MP where the reader's second load is address-dependent on the first:
     with a writer-side dmb the stale read is forbidden even with no
     reader barrier (the Armv8 address-dependency guarantee) *)
  let prog =
    Prog.make ~name:"mp-addr-dep"
      ~init:[ (Loc.v ~index:0 "data", 7); (Loc.v ~index:1 "data", 7) ]
      ~observables:[ obs_r 2 "ptr"; obs_r 2 "v" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at ~offset:(Expr.c 1) "data") (Expr.c 9);
            Instr.dmb;
            Instr.store (Expr.at "idx") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "ptr") (Expr.at "idx");
            Instr.load (Reg.v "v")
              (Expr.at ~offset:Expr.(r (Reg.v "ptr")) "data") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "ptr=1 implies v=9 (no stale data[1])" false
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "ptr") = Some 1 && g (obs_r 2 "v") = Some 7)
       b)

let test_data_dependency_orders_store () =
  (* LB with a data dependency on one side only: still forbidden to see
     both 1s when the other side also has a dependency (lb-data in the
     corpus); here we check one-sided: t1 dep, t2 free: outcome allowed *)
  let prog =
    Prog.make ~name:"lb-one-dep"
      ~observables:[ obs_r 1 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.load (Reg.v "r0") (Expr.at "x");
            Instr.store (Expr.at "y") Expr.(r (Reg.v "r0")) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r1") (Expr.at "y");
            Instr.store (Expr.at "x") (Expr.c 1) ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "one-sided dependency: reachable" true
    (Behavior.satisfiable
       (fun g -> g (obs_r 1 "r0") = Some 1 && g (obs_r 2 "r1") = Some 1)
       b)

let test_release_not_promotable_past_earlier_store () =
  (* Example 3 fixed: the release store cannot be promised ahead of the
     program-order-earlier context store *)
  let r = Litmus.run Paper_examples.example3_fixed in
  Alcotest.(check bool) "no stale restore" false r.Litmus.rm_sat

let test_unfulfilled_promises_invalid () =
  (* a promise that cannot be fulfilled never yields a terminal outcome:
     thread 0 has no store at all, so promising is impossible and the
     behavior set equals SC's *)
  let prog =
    Prog.make ~name:"no-store"
      ~observables:[ obs_r 0 "r" ]
      [ Prog.thread 0 [ Instr.load (Reg.v "r") (Expr.at "x") ];
        Prog.thread 1 [ Instr.load (Reg.v "s") (Expr.at "x") ] ]
  in
  let sc = Sc.run prog in
  let rm = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "equal" true (Behavior.equal sc rm)

let test_strict_certification_equivalent () =
  (* the letter-of-the-semantics mode (certify at every step) and the
     lazy default (prune at the end) produce identical outcome sets *)
  List.iter
    (fun (t : Litmus.t) ->
      let lazy_b = Promising.run ?config:t.Litmus.rm_config t.Litmus.prog in
      let strict_cfg =
        { (Option.value ~default:Promising.default_config t.Litmus.rm_config)
          with Promising.strict_certification = true }
      in
      let strict_b = Promising.run ~config:strict_cfg t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ ": strict = lazy")
        true
        (Behavior.equal (normals lazy_b) (normals strict_b)))
    [ Paper_examples.example1; Paper_examples.example3_buggy;
      Paper_examples.mp_plain; Paper_examples.mp_rel_acq;
      Paper_examples.sb; Litmus_suite.w22_plain ]

(* ------------------------------------------------------------------ *)
(* Golden witness schedules                                            *)
(* ------------------------------------------------------------------ *)

(* Witness schedules are part of every refinement verdict and cached
   result, so [run_full] must keep producing them byte for byte. The
   digests were captured from the executor that rendered each step's
   text during the search; they pin the rendering of every
   (outcome, schedule) pair, sorted by outcome, per program. *)
let witness_digest ws =
  let ws = List.sort (fun (a, _) (b, _) -> Behavior.compare_outcome a b) ws in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (o, s) ->
               Format.asprintf "%a@\n%a@\n--@\n" Behavior.pp_outcome o
                 Promising.pp_schedule s)
             ws)))

let witness_programs =
  List.map
    (fun (e : Sekvm.Kernel_progs.entry) ->
      (e.Sekvm.Kernel_progs.name, e.Sekvm.Kernel_progs.prog,
       Some e.Sekvm.Kernel_progs.rm_config))
    Sekvm.Kernel_progs.(corpus @ buggy_corpus @ boundary_corpus)
  @ List.map
      (fun (t : Litmus.t) ->
        (t.Litmus.prog.Prog.name, t.Litmus.prog, t.Litmus.rm_config))
      (Litmus_suite.all @ Paper_examples.all)

let golden_witnesses =
  [
    ("gen_vmid", "2ecac5a03fc9935274929da41b41d41d");
    ("vcpu-switch", "22883eaf5da8c7497ddc9aba59927f0b");
    ("vm-boot-state", "a6694fe4c25908646cd6c51ac3dba9ba");
    ("share-page", "0152e5ef612065c8ae236b6cbde10488");
    ("mcs-counter", "80a9da67824d964b1d0e3fa9ff5cfce1");
    ("mcs-handoff", "6dc3dbdf747cdfcfd5b8f3202fd14807");
    ("gen_vmid-nobarrier", "33675da948510bc6fb209ba18ddf0c93");
    ("vcpu-switch-nobarrier", "99f65c23c4448624e052fe4e818624e2");
    ("mcs-handoff-nobarrier", "f2aa0e57272a3844f112b5868244c3a7");
    ("unlocked-counter", "e4968188d7277c48952ededc6392ff76");
    ("push-without-pull", "10fcd3810c536b848abc0af8dbf04995");
    ("pt-walker-race", "d7ae301f105d962f3fc2440d1ab1e48b");
    ("s-plain", "1910ca0b1e0d5d448880614223c73696");
    ("s-dmb", "0ff9c6446b504ee5acb95a893430fb67");
    ("2+2w-plain", "1c3ad871a0f73e4f478324b336e8fc90");
    ("2+2w-dmbst", "94f85afd8312d0b01f17e7d8ed22f737");
    ("wrc-plain", "19947fcfaa790e45499df28c73980dba");
    ("wrc-dmb", "5a623af6f09e8165181acf3d9e31bc6f");
    ("wrc-addr", "0432ae5057848be431c579e391e2f10b");
    ("isa2-dmb", "a9940717f917f7c3e46c7b01142f39ab");
    ("mp-dmb-ctrl", "e031aebd4586ee2c2ab7bb3cfe466fbf");
    ("mp-dmb-ctrl-isb", "33d4da55395e5d87b9e1df025631693e");
    ("lb-ctrl", "a3891290c63a1041338a2ebc7c5ecfd7");
    ("cowr", "f524d85d3654d2f0eacf6cbfa9cb1da3");
    ("corw1", "eb3e8c1fd0f7507f697149bc065e2243");
    ("sb-one-dmb", "a98815ef869e7a2797d950ffc502e7cc");
    ("rel-acq-two-fields", "373902354b5e231ea0186a8de25aa1b9");
    ("r-plain", "4c950ac9b1b19559f55b032946a15ba6");
    ("r-dmb", "22252deaf70869108e18e40f53daf81a");
    ("corr-total", "2d43737362cca64abc293bc1ccd39269");
    ("sb-rel-acq", "49eb9e437453754eadbe9842f07aa73c");
    ("example1-ooo-write", "3b5ab7a4b88a8ee208401165f63b1b5b");
    ("example2-vmid-nobarrier", "811d0d1f3862a8b2f7a0658d51fbc12c");
    ("example2-vmid-linux-lock", "1a5484acd70461729a26f715e82afb6b");
    ("example3-vcpu-nobarrier", "84b290f8826ddec0b82e36484b14847d");
    ("example3-vcpu-relacq", "d43586d2937479445645a2d74e95f2ae");
    ("example7-user-to-kernel", "701f6e988940b5f5fdcac161fcb0afff");
    ("mp-plain", "bc1fb003e70304cb105e18af5b965cab");
    ("mp-dmb", "c3cab3f76dcd553bf10d77480366ee9f");
    ("mp-rel-acq", "bce9825b96fbf0565ff6514aa8ef53a0");
    ("sb-plain", "01255074092452ff15ea19c5daf9b660");
    ("sb-dmb", "29001e6dbf10a8d2d9a3aecf449c8d93");
    ("lb-data", "32ba181c49c4530770bdd8f2804f35f8");
    ("corr", "37d8db7590d4073305c1283db780e608");
    ("mp-dmb-addr", "0918675caa61738e1223da4ccbc5e5dc");
  ]

let test_golden_witnesses () =
  let got =
    List.map
      (fun (name, prog, config) ->
        let _, ws, _ = Promising.run_full ?config prog in
        (name, witness_digest ws))
      witness_programs
  in
  Alcotest.(check (list (pair string string))) "witness digests"
    golden_witnesses got

(* ------------------------------------------------------------------ *)
(* Property: SC ⊆ Promising on random programs                         *)
(* ------------------------------------------------------------------ *)

let gen_thread tid =
  let open QCheck.Gen in
  let reg = map (fun i -> Reg.v (Printf.sprintf "r%d_%d" tid i)) (int_bound 1) in
  let base = oneofl [ "x"; "y" ] in
  let order = oneofl [ Instr.Plain; Instr.Acquire ] in
  let worder = oneofl [ Instr.Plain; Instr.Release ] in
  let instr =
    frequency
      [ (4, map3 (fun r b o -> Instr.load ~order:o r (Expr.at b)) reg base order);
        ( 4,
          map3
            (fun b v o -> Instr.store ~order:o (Expr.at b) (Expr.c v))
            base (int_bound 2) worder );
        (1, map2 (fun r b -> Instr.fetch_and_inc r (Expr.at b)) reg base);
        (1, return Instr.dmb);
        (1, return Instr.dmb_ld);
        (1, return Instr.dmb_st) ]
  in
  map (fun l -> Prog.thread tid l) (list_size (int_range 1 4) instr)

let gen_prog =
  QCheck.Gen.map2
    (fun t1 t2 ->
      Prog.make ~name:"random"
        ~observables:
          [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
            Prog.Obs_reg (1, Reg.v "r1_0"); Prog.Obs_reg (2, Reg.v "r2_0") ]
        [ t1; t2 ])
    (gen_thread 1) (gen_thread 2)

let qcheck_sc_subset_of_rm =
  QCheck.Test.make ~name:"SC behaviors are Promising behaviors" ~count:60
    (QCheck.make gen_prog)
    (fun prog ->
      let sc = Sc.run prog in
      let rm = Promising.run ~config:(cfg ~mp:1 ()) prog in
      Behavior.subset (normals sc) (normals rm))

(* Replay must find exactly one matching successor at every step under
   every search mode, not only the default one the digests pin: POR and
   symmetry off, parallel search, strict certification. Each mode's
   schedules cover exactly its outcomes. *)
let test_witness_replay_modes () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog and config = t.Litmus.rm_config in
      let strict =
        { (Option.value ~default:Promising.default_config config) with
          Promising.strict_certification = true }
      in
      List.iter
        (fun (mode, run) ->
          let b, ws, _ = run () in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: one schedule per outcome" p.Prog.name mode)
            (Behavior.cardinal b) (List.length ws))
        [ ("por off", fun () -> Promising.run_full ?config ~por:false p);
          ("sym off", fun () -> Promising.run_full ?config ~sym:false p);
          ("jobs=2", fun () -> Promising.run_full ?config ~jobs:2 p);
          ("strict", fun () -> Promising.run_full ~config:strict p) ])
    Paper_examples.all

(* ------------------------------------------------------------------ *)
(* Cached per-thread sub-keys                                          *)
(* ------------------------------------------------------------------ *)

(* A step recomputes the sub-key of the thread it moves and shares the
   others with its parent; a stale entry would silently merge distinct
   states. Every sampled state's keys must equal the keys recomputed
   from scratch. The symmetric corpus exercises the orbit-canonical
   key. *)
let test_subkeys_corpus () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let n =
        Promising.check_subkeys ~config:e.Sekvm.Kernel_progs.rm_config
          e.Sekvm.Kernel_progs.prog
      in
      Alcotest.(check bool) (e.Sekvm.Kernel_progs.name ^ " sampled") true
        (n > 1))
    Sekvm.Kernel_progs.(corpus @ buggy_corpus @ boundary_corpus @ sym_corpus)

(* Random programs, plus a symmetric variant of each: two copies of
   the first thread's code under fresh tids that no observable names,
   so the copies form a symmetry group. *)
let qcheck_subkeys_random =
  QCheck.Test.make ~name:"cached sub-keys equal recomputed keys" ~count:40
    (QCheck.make gen_prog)
    (fun prog ->
      let twin =
        match prog.Prog.threads with
        | t :: _ ->
            Prog.make ~name:"random-twin" ~init:prog.Prog.init
              ~observables:prog.Prog.observables
              (prog.Prog.threads
              @ [ Prog.thread 8 t.Prog.code; Prog.thread 9 t.Prog.code ])
        | [] -> prog
      in
      Promising.check_subkeys ~config:(cfg ~mp:1 ()) prog > 0
      && Promising.check_subkeys ~config:(cfg ~mp:1 ()) twin > 0)

let () =
  Alcotest.run "promising"
    [ ("litmus-corpus", litmus_cases);
      ( "mechanics",
        [ Alcotest.test_case "LB needs promises" `Quick test_lb_needs_promises;
          Alcotest.test_case "SB needs no promises" `Quick
            test_sb_needs_no_promises;
          Alcotest.test_case "coherence CoWW" `Quick
            test_coherence_within_thread;
          Alcotest.test_case "read own write" `Quick test_read_own_write;
          Alcotest.test_case "RMW atomic under RM" `Quick
            test_rmw_atomicity_rm;
          Alcotest.test_case "unfulfillable promises pruned" `Quick
            test_unfulfilled_promises_invalid;
          Alcotest.test_case "strict certification equivalent" `Quick
            test_strict_certification_equivalent ] );
      ( "ordering",
        [ Alcotest.test_case "dmb-ld orders reads" `Quick
            test_dmb_ld_orders_reads;
          Alcotest.test_case "dmb-st alone insufficient" `Quick
            test_dmb_st_alone_insufficient_for_reader;
          Alcotest.test_case "address dependency" `Quick
            test_addr_dependency_orders;
          Alcotest.test_case "one-sided data dependency" `Quick
            test_data_dependency_orders_store;
          Alcotest.test_case "release not promotable" `Quick
            test_release_not_promotable_past_earlier_store ] );
      ( "witnesses",
        [ Alcotest.test_case "golden witness schedules" `Quick
            test_golden_witnesses;
          Alcotest.test_case "replay under every search mode" `Quick
            test_witness_replay_modes ] );
      ( "subkeys",
        [ Alcotest.test_case "corpus sub-keys consistent" `Quick
            test_subkeys_corpus;
          QCheck_alcotest.to_alcotest qcheck_subkeys_random ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_sc_subset_of_rm ]) ]
