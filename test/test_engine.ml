(* Golden-parity tests for the shared exploration engine (Engine.Make).

   The digests below were captured from the pre-engine executors — each
   model ran its own private DFS+memoization loop — immediately before
   the refactor onto [Engine]. The engine-based executors must reproduce
   every behavior set bit-identically (digest of the canonical
   [Behavior.pp] rendering), including the exact ownership violation the
   push/pull checker reports first. The remaining tests check that
   parallel search ([~jobs]) returns the sequential behavior sets and
   that the exploration statistics are sane. *)

open Memmodel

let digest_behaviors (b : Behavior.t) : string =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Behavior.pp b))

(* (model, program, expected) — captured from the seed executors *)
let golden =
  [
    ("sc", "example1-ooo-write", "99e322099b2c53283986b87c0a014695");
    ("tso", "example1-ooo-write", "99e322099b2c53283986b87c0a014695");
    ("promising", "example1-ooo-write", "2b4469770ae30fca187483d89d7ba355");
    ("sc", "example2-vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("tso", "example2-vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "example2-vmid-nobarrier", "7bd8fdd08b7ba7ac98c273106bf31ac2");
    ("sc", "example2-vmid-linux-lock", "cc50367be32898f6e26a850b0a8ccc59");
    ("tso", "example2-vmid-linux-lock", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "example2-vmid-linux-lock", "48337ca23bd62408c01757b14db00804");
    ("sc", "example3-vcpu-nobarrier", "c658069ca13752d2c6185b6c6a438482");
    ("tso", "example3-vcpu-nobarrier", "c658069ca13752d2c6185b6c6a438482");
    ("promising", "example3-vcpu-nobarrier", "cd08ee6c6e219667c3a72e50bdf459f7");
    ("sc", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("tso", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("promising", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("sc", "example7-user-to-kernel", "aa3c1fb2fb1b3866609db387b9380e54");
    ("tso", "example7-user-to-kernel", "aa3c1fb2fb1b3866609db387b9380e54");
    ("promising", "example7-user-to-kernel", "8f806f369587833b144abcded3d62ed5");
    ("sc", "mp-plain", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-plain", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-plain", "8a1956d204a27c98cd7a5c22d3f822d6");
    ("sc", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("sc", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("sc", "sb-plain", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-plain", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-plain", "36f6b4f1b45f73a9114ef19366b8163c");
    ("sc", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("promising", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("sc", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("tso", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("promising", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("sc", "corr", "b770567301caf5eb129c8c144d47b730");
    ("tso", "corr", "b770567301caf5eb129c8c144d47b730");
    ("promising", "corr", "b770567301caf5eb129c8c144d47b730");
    ("sc", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("tso", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("promising", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("sc", "s-plain", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("tso", "s-plain", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("promising", "s-plain", "2664ecbfbb4e3219001881f95d3ec8ec");
    ("sc", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("tso", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("promising", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("sc", "2+2w-plain", "4fe5f2f1167674eae7f11175aed10525");
    ("tso", "2+2w-plain", "4fe5f2f1167674eae7f11175aed10525");
    ("promising", "2+2w-plain", "1113e7e201844f72ce566b35426dc5c3");
    ("sc", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("tso", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("promising", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("sc", "wrc-plain", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "wrc-plain", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "wrc-plain", "69e09ce614011f6e040bf34c0af62bf7");
    ("sc", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("sc", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("tso", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("promising", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("sc", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("sc", "mp-dmb-ctrl", "defb4a92ef00e582140d49b3daa905fd");
    ("tso", "mp-dmb-ctrl", "defb4a92ef00e582140d49b3daa905fd");
    ("promising", "mp-dmb-ctrl", "225a0f95e4b95a74ac0dfd1c450da8b9");
    ("sc", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("tso", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("promising", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("sc", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("tso", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("promising", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("sc", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("tso", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("promising", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("sc", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("tso", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("promising", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("sc", "sb-one-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-one-dmb", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-one-dmb", "36f6b4f1b45f73a9114ef19366b8163c");
    ("sc", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("tso", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("promising", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("sc", "r-plain", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("tso", "r-plain", "fda8c281912c9b76c7b16bf11f306852");
    ("promising", "r-plain", "fda8c281912c9b76c7b16bf11f306852");
    ("sc", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("tso", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("promising", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("sc", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("tso", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("promising", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("sc", "sb-rel-acq", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-rel-acq", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-rel-acq", "2fadd2cef85290b12756d3c89f689d1a");
    ("sc", "gen_vmid", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "gen_vmid", "48337ca23bd62408c01757b14db00804");
    ("pushpull", "gen_vmid", "ok:cc50367be32898f6e26a850b0a8ccc59");
    ("sc", "vcpu-switch", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("promising", "vcpu-switch", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("pushpull", "vcpu-switch", "ok:b3a3ee4b0fd10adbe42f755a2dcff391");
    ("sc", "vm-boot-state", "3b6bbaf691e96ae2ed86a4562ecefea3");
    ("promising", "vm-boot-state", "984ff0b9f1e9586ba9d564f79bb8f66a");
    ("pushpull", "vm-boot-state", "ok:3b6bbaf691e96ae2ed86a4562ecefea3");
    ("sc", "share-page", "140aeaea0c804c205a9ea7ea229c9584");
    ("promising", "share-page", "88ecba2179b8a248030dc94db2f4fdf5");
    ("pushpull", "share-page", "ok:140aeaea0c804c205a9ea7ea229c9584");
    ("sc", "mcs-counter", "965cbd21d5566170706e0622c244e20c");
    ("promising", "mcs-counter", "965cbd21d5566170706e0622c244e20c");
    ("pushpull", "mcs-counter", "ok:965cbd21d5566170706e0622c244e20c");
    ("sc", "mcs-handoff", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("promising", "mcs-handoff", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("pushpull", "mcs-handoff", "ok:eddf645b902b9c57eb5b2940e9ce21b7");
    ("sc", "gen_vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "gen_vmid-nobarrier", "7bd8fdd08b7ba7ac98c273106bf31ac2");
    ("pushpull", "gen_vmid-nobarrier", "ok:cc50367be32898f6e26a850b0a8ccc59");
    ("sc", "vcpu-switch-nobarrier", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("promising", "vcpu-switch-nobarrier", "ea03959bf7d75f90a5bf86aa584b3797");
    ("pushpull", "vcpu-switch-nobarrier", "ok:b3a3ee4b0fd10adbe42f755a2dcff391");
    ("sc", "mcs-handoff-nobarrier", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("promising", "mcs-handoff-nobarrier", "b65993874d3e7f38188d76355d677878");
    ("pushpull", "mcs-handoff-nobarrier", "ok:eddf645b902b9c57eb5b2940e9ce21b7");
    ("sc", "unlocked-counter", "73ef2ef515dd0086a2b64b8df39df110");
    ("promising", "unlocked-counter", "73ef2ef515dd0086a2b64b8df39df110");
    ("pushpull", "unlocked-counter", "violation:CPU 1: access to a shared location not owned on base counter (shared base accessed outside pull/push section)");
    ("sc", "push-without-pull", "0b209fbb1ee44d0028de5297ee9ec421");
    ("promising", "push-without-pull", "0b209fbb1ee44d0028de5297ee9ec421");
    ("pushpull", "push-without-pull", "violation:CPU 0: push of a location not owned by this CPU on base counter (base not owned by pushing CPU)");
  ]

let litmus = Paper_examples.all @ Litmus_suite.all
let kernel = Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus

(* Canonical rendering of a push/pull verdict, shared by the golden and
   POR-parity tests: violations render through [pp_violation], so parity
   here means the exact first violation string. *)
let pp_check = function
  | Pushpull.Drf_ok b -> "ok:" ^ digest_behaviors b
  | Pushpull.Drf_violation v ->
      Format.asprintf "violation:%a" Pushpull.pp_violation v
  | Pushpull.Drf_kernel_panic _ -> "panic"

(* Recompute every golden entry with the engine-based executors, in the
   same order the goldens were captured. *)
let computed () =
  List.concat_map
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      [ ("sc", p.Prog.name, digest_behaviors (Sc.run p));
        ("tso", p.Prog.name, digest_behaviors (Tso.run ~fuel:3 p));
        ( "promising",
          p.Prog.name,
          digest_behaviors (Promising.run ?config:t.Litmus.rm_config p) ) ])
    litmus
  @ List.concat_map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        let p = e.Sekvm.Kernel_progs.prog in
        [ ("sc", e.Sekvm.Kernel_progs.name, digest_behaviors (Sc.run p));
          ( "promising",
            e.Sekvm.Kernel_progs.name,
            digest_behaviors
              (Promising.run ~config:e.Sekvm.Kernel_progs.rm_config p) );
          ( "pushpull",
            e.Sekvm.Kernel_progs.name,
            pp_check
              (Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
                 ~initial_owners:e.Sekvm.Kernel_progs.initial_owners p) ) ])
      kernel

let test_golden_parity () =
  let got = computed () in
  Alcotest.(check int) "corpus size unchanged" (List.length golden)
    (List.length got);
  List.iter2
    (fun (m, n, want) (m', n', have) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s entry" m n)
        (m ^ "/" ^ n) (m' ^ "/" ^ n');
      Alcotest.(check string) (Printf.sprintf "%s/%s behaviors" m n) want have)
    golden got

(* jobs=1 and jobs=4 must produce identical behavior sets: the search is
   over a pure transition system, so the union of the BFS-prefix and
   per-domain DFS outcomes is schedule-independent. *)
let test_jobs_equivalence () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      Alcotest.(check bool)
        (p.Prog.name ^ " sc jobs=4")
        true
        (Behavior.equal (Sc.run p) (Sc.run ~jobs:4 p));
      Alcotest.(check bool)
        (p.Prog.name ^ " tso jobs=4")
        true
        (Behavior.equal (Tso.run ~fuel:3 p) (Tso.run ~fuel:3 ~jobs:4 p)))
    litmus;
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      Alcotest.(check bool)
        (p.Prog.name ^ " promising jobs=4")
        true
        (Behavior.equal
           (Promising.run ?config:t.Litmus.rm_config p)
           (Promising.run ?config:t.Litmus.rm_config ~jobs:4 p)))
    Paper_examples.all

let test_jobs_equivalence_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let p = e.Sekvm.Kernel_progs.prog in
      let run jobs =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~jobs p
      in
      let same =
        match (run 1, run 4) with
        | Pushpull.Drf_ok a, Pushpull.Drf_ok b -> Behavior.equal a b
        | Pushpull.Drf_violation _, Pushpull.Drf_violation _ -> true
        | Pushpull.Drf_kernel_panic _, Pushpull.Drf_kernel_panic _ -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (e.Sekvm.Kernel_progs.name ^ " pushpull jobs=4")
        true same)
    kernel

let test_stats_sanity () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      let check_stats model (b, (s : Engine.stats)) =
        let name what = Printf.sprintf "%s %s %s" p.Prog.name model what in
        Alcotest.(check bool)
          (name "visited >= outcomes")
          true
          (s.Engine.visited >= Behavior.cardinal b);
        Alcotest.(check bool)
          (name "dedup >= 0")
          true (s.Engine.dedup_hits >= 0);
        (* every visited state except the root was reached by an
           enumerated transition *)
        Alcotest.(check bool)
          (name "transitions >= visited - 1")
          true
          (s.Engine.transitions >= s.Engine.visited - 1);
        Alcotest.(check int)
          (name "outcomes field")
          (Behavior.cardinal b) s.Engine.outcomes;
        Alcotest.(check bool) (name "wall >= 0") true (s.Engine.wall_s >= 0.)
      in
      check_stats "sc" (Sc.run_stats p);
      check_stats "promising"
        (Promising.run_stats ?config:t.Litmus.rm_config p))
    Paper_examples.all;
  (* the Litmus harness surfaces the same stats *)
  let r = Litmus.run Paper_examples.example1 in
  Alcotest.(check bool) "litmus sc stats populated" true
    (r.Litmus.sc_stats.Engine.visited > 0);
  Alcotest.(check bool) "litmus rm stats populated" true
    (r.Litmus.rm_stats.Engine.visited > 0)

(* POR must not change any behavior set: for every litmus program and
   kernel corpus entry, the SC and TSO digests with POR on equal the
   exact-search digests — sequentially and at jobs=4 (work stealing). *)
let test_por_equivalence () =
  let progs =
    List.map (fun (t : Litmus.t) -> t.Litmus.prog) litmus
    @ List.map (fun (e : Sekvm.Kernel_progs.entry) -> e.Sekvm.Kernel_progs.prog)
        kernel
  in
  List.iter
    (fun (p : Prog.t) ->
      let sc_exact = digest_behaviors (Sc.run ~por:false p) in
      let tso_exact = digest_behaviors (Tso.run ~fuel:3 ~por:false p) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s sc por jobs=%d" p.Prog.name jobs)
            sc_exact
            (digest_behaviors (Sc.run ~jobs ~por:true p));
          Alcotest.(check string)
            (Printf.sprintf "%s tso por jobs=%d" p.Prog.name jobs)
            tso_exact
            (digest_behaviors (Tso.run ~fuel:3 ~jobs ~por:true p)))
        [ 1; 4 ];
      Alcotest.(check string)
        (p.Prog.name ^ " sc exact jobs=4")
        sc_exact
        (digest_behaviors (Sc.run ~jobs:4 ~por:false p)))
    progs

(* POR must actually reduce: over each corpus, every model visits
   strictly fewer states with POR on, and the prune counter is nonzero.
   (Per-program this can tie — a two-thread racy program may have no
   ample or sleepable step — so we assert on the corpus sum. Promising
   entries under [strict_certification] run exact either way and
   contribute equally to both sides.) *)
let test_por_reduces () =
  let sum f =
    List.fold_left
      (fun (on, off, pruned) (t : Litmus.t) ->
        let _, (s_on : Engine.stats) = f ~por:true t in
        let _, (s_off : Engine.stats) = f ~por:false t in
        ( on + s_on.Engine.visited,
          off + s_off.Engine.visited,
          pruned + s_on.Engine.por_pruned ))
      (0, 0, 0) litmus
  in
  let check name (on, off, pruned) =
    Alcotest.(check bool)
      (name ^ ": POR visits strictly fewer states")
      true (on < off);
    Alcotest.(check bool) (name ^ ": POR prunes transitions") true (pruned > 0)
  in
  check "sc" (sum (fun ~por t -> Sc.run_stats ~por t.Litmus.prog));
  check "tso" (sum (fun ~por t -> Tso.run_stats ~fuel:3 ~por t.Litmus.prog));
  check "promising"
    (sum (fun ~por t ->
         Promising.run_stats ?config:t.Litmus.rm_config ~por t.Litmus.prog));
  check "pushpull"
    (List.fold_left
       (fun (on, off, pruned) (e : Sekvm.Kernel_progs.entry) ->
         let run por =
           Pushpull.check_stats ~exempt:e.Sekvm.Kernel_progs.exempt
             ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~por
             e.Sekvm.Kernel_progs.prog
         in
         let _, (s_on : Engine.stats) = run true in
         let _, (s_off : Engine.stats) = run false in
         ( on + s_on.Engine.visited,
           off + s_off.Engine.visited,
           pruned + s_on.Engine.por_pruned ))
       (0, 0, 0) Sekvm.Kernel_progs.corpus)

(* The certification-aware Promising oracle must not change any behavior
   set: with POR forced on and off, every litmus program and kernel
   entry (boundary and lint corpora included) lands on one digest —
   combined with the golden table above, both toggles reproduce the
   seed digests exactly. *)
let test_por_parity_promising () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      let d por =
        digest_behaviors (Promising.run ?config:t.Litmus.rm_config ~por p)
      in
      Alcotest.(check string)
        (p.Prog.name ^ " promising por on = off")
        (d false) (d true))
    litmus;
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let d por =
        digest_behaviors
          (Promising.run ~config:e.Sekvm.Kernel_progs.rm_config ~por
             e.Sekvm.Kernel_progs.prog)
      in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " promising por on = off")
        (d false) (d true))
    (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
   @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus)

(* Same for the ownership oracle: violating transitions carry global
   footprints and are never slept, so the sequential search must report
   the exact same first violation (string-for-string) with POR on or
   off. At jobs=4 the winning schedule is racy, so only the
   classification (which constructor; for violations, which kind on
   which base) is asserted. *)
let test_por_parity_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let run ~jobs por =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~jobs ~por
          e.Sekvm.Kernel_progs.prog
      in
      let want = run ~jobs:1 false in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " pushpull por on = off")
        (pp_check want)
        (pp_check (run ~jobs:1 true));
      let classified =
        match (want, run ~jobs:4 true) with
        | Pushpull.Drf_ok a, Pushpull.Drf_ok b -> Behavior.equal a b
        | Pushpull.Drf_violation a, Pushpull.Drf_violation b ->
            a.Pushpull.v_kind = b.Pushpull.v_kind
            && a.Pushpull.v_base = b.Pushpull.v_base
        | Pushpull.Drf_kernel_panic a, Pushpull.Drf_kernel_panic b -> a = b
        | _ -> false
      in
      Alcotest.(check bool)
        (e.Sekvm.Kernel_progs.name ^ " pushpull por jobs=4 classification")
        true classified)
    kernel

(* A deadline already in the past must stop a jobs=4 work-stealing
   search promptly: budget_hit set, almost nothing visited. *)
let test_parallel_cancellation () =
  let p = Paper_examples.example1.Litmus.prog in
  let deadline = Unix.gettimeofday () -. 1.0 in
  let _, (s : Engine.stats) = Sc.run_stats ~jobs:4 ~deadline p in
  Alcotest.(check bool) "budget_hit set" true s.Engine.budget_hit;
  Alcotest.(check bool)
    (Printf.sprintf "visited tiny (%d)" s.Engine.visited)
    true
    (s.Engine.visited <= 8);
  (* same through the Promising executor (lazy expansion path) *)
  let _, (sp : Engine.stats) = Promising.run_stats ~jobs:4 ~deadline p in
  Alcotest.(check bool) "promising budget_hit set" true sp.Engine.budget_hit

(* A deadline expiring mid-search must classify the partial result the
   same way regardless of partitioning: a refinement check cancelled at
   jobs=1 and at jobs=4 both flag budget_hit and agree on the verdict
   classification (with an already-past deadline both sides are cut at
   the root, so the comparison is deterministic). *)
let test_deadline_classification () =
  let e = List.hd kernel in
  let p = e.Sekvm.Kernel_progs.prog
  and config = e.Sekvm.Kernel_progs.rm_config in
  let deadline = Unix.gettimeofday () -. 1.0 in
  let v1 = Vrm.Refinement.check ~config ~jobs:1 ~deadline p in
  let v4 = Vrm.Refinement.check ~config ~jobs:4 ~deadline p in
  Alcotest.(check bool) "jobs=1 rm budget_hit" true
    v1.Vrm.Refinement.rm_stats.Engine.budget_hit;
  Alcotest.(check bool) "jobs=4 rm budget_hit" true
    v4.Vrm.Refinement.rm_stats.Engine.budget_hit;
  Alcotest.(check bool) "holds classification equal" v1.Vrm.Refinement.holds
    v4.Vrm.Refinement.holds;
  Alcotest.(check string) "cancelled rm digests equal"
    (digest_behaviors v1.Vrm.Refinement.rm)
    (digest_behaviors v4.Vrm.Refinement.rm);
  Alcotest.(check string) "cancelled sc digests equal"
    (digest_behaviors v1.Vrm.Refinement.sc)
    (digest_behaviors v4.Vrm.Refinement.sc)

(* max_states is one global budget in parallel mode: jobs=4 with a tiny
   budget stops near it, not at 4x it. *)
let test_global_budget () =
  let p = Paper_examples.example1.Litmus.prog in
  let cfg = { Promising.default_config with max_promises = 2 } in
  let exact, (full : Engine.stats) = Promising.run_stats ~config:cfg p in
  ignore exact;
  let budget = max 4 (full.Engine.visited / 4) in
  let _, (s : Engine.stats) =
    Promising.run_stats ~config:{ cfg with max_states = budget } ~jobs:4 p
  in
  Alcotest.(check bool) "budget_hit set" true s.Engine.budget_hit;
  (* each domain may overshoot by the frames already in flight, but not
     by another domain's worth of private budget *)
  Alcotest.(check bool)
    (Printf.sprintf "visited %d near budget %d" s.Engine.visited budget)
    true
    (s.Engine.visited < 2 * budget)

(* Certification memoization must be verdict-preserving: for every
   litmus program and every kernel corpus entry (including the boundary
   and lint corpora), the Promising behavior set with the cert cache on
   is bit-identical to the set with it off. *)
let all_kernel =
  Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
  @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus

let test_cert_cache_equivalence () =
  let check_prog name config p =
    let digest cert_cache =
      digest_behaviors
        (Promising.run ~config:{ config with Promising.cert_cache } p)
    in
    Alcotest.(check string) (name ^ " cert-cache on = off") (digest false)
      (digest true)
  in
  List.iter
    (fun (t : Litmus.t) ->
      let config =
        Option.value ~default:Promising.default_config t.Litmus.rm_config
      in
      check_prog t.Litmus.prog.Prog.name config t.Litmus.prog)
    litmus;
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      check_prog e.Sekvm.Kernel_progs.name e.Sekvm.Kernel_progs.rm_config
        e.Sekvm.Kernel_progs.prog)
    all_kernel

(* The cache must actually field queries on the kernel corpus (lock
   promises revisit equivalent certification problems) — at least half
   of them, for the memoization to carry its weight (measured
   9921/18916) — and report nothing when disabled. *)
let test_cert_cache_hits () =
  let calls, hits =
    List.fold_left
      (fun (c, h) (e : Sekvm.Kernel_progs.entry) ->
        let _, (s : Engine.stats) =
          Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config
            e.Sekvm.Kernel_progs.prog
        in
        (c + s.Engine.cert_calls, h + s.Engine.cert_hits))
      (0, 0) kernel
  in
  Alcotest.(check bool) "cert_calls > 0 over the corpus" true (calls > 0);
  Alcotest.(check bool) "cert_hits > 0 over the corpus" true (hits > 0);
  Alcotest.(check bool) "hits <= calls" true (hits <= calls);
  Alcotest.(check bool)
    (Printf.sprintf "cache answers at least half the queries (%d/%d)" hits
       calls)
    true
    (2 * hits >= calls);
  let e = List.hd kernel in
  let _, (off : Engine.stats) =
    Promising.run_stats
      ~config:
        { e.Sekvm.Kernel_progs.rm_config with Promising.cert_cache = false }
      e.Sekvm.Kernel_progs.prog
  in
  Alcotest.(check int) "cache off reports zero calls" 0 off.Engine.cert_calls;
  (* the Litmus harness override reaches the model *)
  let r = Litmus.run ~cert_cache:false Paper_examples.example1 in
  Alcotest.(check int) "litmus --no-cert-cache reports zero calls" 0
    r.Litmus.rm_stats.Engine.cert_calls

(* Thread-symmetry reduction must not change any behavior set: for
   every litmus program and kernel entry across all four corpora (plus
   the sym-stress family itself), the SC, TSO and Promising digests
   with orbit canonicalization on equal the plain-key digests —
   combined with the golden table above, sym-on reproduces the seed
   digests exactly. Promising entries under [strict_certification]
   force canonicalization off internally and trivially tie. *)
let test_sym_parity_models () =
  let progs =
    List.map (fun (t : Litmus.t) -> (t.Litmus.prog, t.Litmus.rm_config)) litmus
    @ List.map
        (fun (e : Sekvm.Kernel_progs.entry) ->
          (e.Sekvm.Kernel_progs.prog, Some e.Sekvm.Kernel_progs.rm_config))
        (all_kernel @ Sekvm.Kernel_progs.sym_corpus)
  in
  List.iter
    (fun ((p : Prog.t), config) ->
      let check model d =
        Alcotest.(check string)
          (p.Prog.name ^ " " ^ model ^ " sym on = off")
          (d false) (d true)
      in
      check "sc" (fun sym -> digest_behaviors (Sc.run ~sym p));
      check "tso" (fun sym -> digest_behaviors (Tso.run ~fuel:3 ~sym p));
      check "promising" (fun sym ->
          digest_behaviors (Promising.run ?config ~sym p)))
    progs

(* Same for the ownership oracle, violation strings included: when any
   base is tracked the checker refuses to canonicalize (a collapsed
   state could alias the reported thread id), so the first violation is
   string-for-string identical with sym on or off. *)
let test_sym_parity_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let run sym =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~sym
          e.Sekvm.Kernel_progs.prog
      in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " pushpull sym on = off")
        (pp_check (run false))
        (pp_check (run true)))
    (all_kernel @ Sekvm.Kernel_progs.sym_corpus)

(* The reduction must actually reduce on the family built for it: on
   every sym-stress entry both SC and Promising detect one group
   covering all threads, arrivals collapse, and the visited count
   drops — by at least 5x at N=4 (the committed acceptance floor;
   measured ~20x). With sym off the stats must report no groups. *)
let test_sym_reduces () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let p = e.Sekvm.Kernel_progs.prog in
      let name what = Printf.sprintf "%s %s" e.Sekvm.Kernel_progs.name what in
      let _, (sc_on : Engine.stats) = Sc.run_stats ~sym:true p in
      let _, (sc_off : Engine.stats) = Sc.run_stats ~sym:false p in
      let _, (rm_on : Engine.stats) =
        Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config ~sym:true p
      in
      let _, (rm_off : Engine.stats) =
        Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config ~sym:false
          p
      in
      Alcotest.(check int) (name "sc one group") 1 sc_on.Engine.sym_groups;
      Alcotest.(check int)
        (name "promising one group")
        1 rm_on.Engine.sym_groups;
      Alcotest.(check int)
        (name "sc off reports no groups")
        0 sc_off.Engine.sym_groups;
      Alcotest.(check bool)
        (name "sc collapses arrivals")
        true
        (sc_on.Engine.sym_collapsed > 0);
      Alcotest.(check bool)
        (name "promising collapses arrivals")
        true
        (rm_on.Engine.sym_collapsed > 0);
      Alcotest.(check bool)
        (name "sc visits fewer states")
        true
        (sc_on.Engine.visited < sc_off.Engine.visited);
      Alcotest.(check bool)
        (name "promising visits fewer states")
        true
        (rm_on.Engine.visited < rm_off.Engine.visited);
      if e.Sekvm.Kernel_progs.name = "sym-stress-4" then begin
        let ratio (on : Engine.stats) (off : Engine.stats) =
          float_of_int off.Engine.visited /. float_of_int on.Engine.visited
        in
        Alcotest.(check bool)
          (name "sc cut >= 5x at N=4")
          true
          (ratio sc_on sc_off >= 5.);
        Alcotest.(check bool)
          (name "promising cut >= 5x at N=4")
          true
          (ratio rm_on rm_off >= 5.)
      end)
    Sekvm.Kernel_progs.sym_corpus

(* Permuting the declaration order of interchangeable threads is
   invisible through the canonical quotient: every declaration order
   produces the same behavior-set digests AND the same sym-on visited
   count (the orbit representative sorts per-thread sub-keys, which
   never mention thread position, so the canonical state-key stream is
   order-independent). *)
let qcheck_sym_permutation =
  let base = Sekvm.Kernel_progs.sym_stress_prog 4 "sym-perm" in
  let id_sc = lazy (digest_behaviors (Sc.run base)) in
  let id_rm = lazy (digest_behaviors (Promising.run base)) in
  let id_visited =
    lazy
      (let _, (s : Engine.stats) = Sc.run_stats base in
       s.Engine.visited)
  in
  QCheck.Test.make ~count:15
    ~name:"thread permutations leave digests and canonical quotient unchanged"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* derive a permutation of the 4 threads from the seed via a
         Fisher-Yates pass on a tiny deterministic LCG *)
      let a = [| 0; 1; 2; 3 |] in
      let s = ref ((seed * 2) + 1) in
      for i = 3 downto 1 do
        s := ((!s * 1103515245) + 12345) land 0x3fffffff;
        let j = !s mod (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      let threads =
        Array.to_list (Array.map (List.nth base.Prog.threads) a)
      in
      let p = { base with Prog.threads } in
      let _, (s_on : Engine.stats) = Sc.run_stats ~sym:true p in
      digest_behaviors (Sc.run p) = Lazy.force id_sc
      && digest_behaviors (Promising.run p) = Lazy.force id_rm
      && s_on.Engine.visited = Lazy.force id_visited)

(* Stripe stability: the engine shards its shared seen set by the high
   bits of {!Statekey.hash}, and each stripe's open-addressing table
   doubles independently as it fills. Growth must never migrate a key
   across stripes — the stripe index is a pure function of the key —
   and the per-stripe tables must stay exact (every key findable in
   its stripe, in no other, occupancy summing to the insert count). *)
let test_stripe_stability () =
  let nstripes = 64 in
  let stripe_of key = Statekey.hash key lsr 48 land (nstripes - 1) in
  let stripes =
    Array.init nstripes (fun _ ->
        Statekey.Table.create ~initial:2 ~dummy:(-1) ())
  in
  let n = 20_000 in
  let keys =
    Array.init n (fun i ->
        let h = Statekey.fresh () in
        Statekey.int h (i * 2654435761);
        Statekey.str h "stripe-stability";
        Statekey.finish h)
  in
  (* record each key's stripe at insert time, against tiny tables *)
  let home = Array.map stripe_of keys in
  Array.iteri
    (fun i key ->
      match Statekey.Table.find_or_add stripes.(home.(i)) key i with
      | `Added -> ()
      | `Found _ -> Alcotest.failf "key %d already present" i)
    keys;
  (* the tables doubled many times while filling *)
  Alcotest.(check bool) "tables grew" true
    (Array.exists (fun t -> Statekey.Table.capacity t > 2) stripes);
  Array.iter
    (fun t ->
      let c = Statekey.Table.capacity t in
      Alcotest.(check bool) "capacity is a positive power of two" true
        (c > 0 && c land (c - 1) = 0);
      Alcotest.(check bool) "capacity bounds length" true
        (Statekey.Table.length t <= c))
    stripes;
  (* after growth: stripe assignment unchanged, keys findable only in
     their stripe *)
  Array.iteri
    (fun i key ->
      Alcotest.(check int)
        (Printf.sprintf "key %d stripe stable across growth" i)
        home.(i) (stripe_of key);
      Alcotest.(check bool)
        (Printf.sprintf "key %d present in its stripe" i)
        true
        (Statekey.Table.mem stripes.(home.(i)) key);
      (* spot-check absence elsewhere (all 64 x 20k would be slow) *)
      let other = (home.(i) + 1 + (i mod (nstripes - 1))) mod nstripes in
      Alcotest.(check bool)
        (Printf.sprintf "key %d absent from stripe %d" i other)
        false
        (Statekey.Table.mem stripes.(other) key))
    keys;
  let total =
    Array.fold_left (fun acc t -> acc + Statekey.Table.length t) 0 stripes
  in
  Alcotest.(check int) "occupancy sums to insert count" n total

(* The seen-set shape counters surface through run_stats: a sequential
   run reports exactly one stripe whose occupancy is the visited count;
   a parallel run reports the striped layout. Contention and allocation
   counters stay sane in both modes. *)
let test_seen_set_stats () =
  let p = Paper_examples.example1.Litmus.prog in
  let _, (seq : Engine.stats) = Sc.run_stats p in
  Alcotest.(check int) "sequential: one stripe" 1 seq.Engine.seen_stripes;
  Alcotest.(check int) "sequential: occupancy = interned states"
    seq.Engine.visited seq.Engine.stripe_occupancy;
  Alcotest.(check int) "sequential: no lock waits" 0 seq.Engine.lock_waits;
  Alcotest.(check bool) "sequential: allocation measured" true
    (seq.Engine.minor_words > 0);
  let _, (par : Engine.stats) = Sc.run_stats ~jobs:4 p in
  Alcotest.(check bool) "parallel: stripes reported" true
    (par.Engine.seen_stripes >= 1);
  Alcotest.(check bool) "parallel: occupancy positive and bounded" true
    (par.Engine.stripe_occupancy > 0
    && par.Engine.stripe_occupancy <= par.Engine.visited);
  Alcotest.(check bool) "parallel: lock waits non-negative" true
    (par.Engine.lock_waits >= 0)

(* Corpus-level scheduling must return, in input order, exactly the
   verdict a direct per-entry check computes. *)
let test_check_many_parity () =
  let entries =
    List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        ( e.Sekvm.Kernel_progs.name,
          e.Sekvm.Kernel_progs.prog,
          e.Sekvm.Kernel_progs.rm_config ))
      kernel
  in
  let direct =
    List.map
      (fun (name, p, config) -> (name, Vrm.Refinement.check ~config p))
      entries
  in
  let many = Vrm.Refinement.check_many ~jobs:4 entries in
  Alcotest.(check int) "result count" (List.length direct) (List.length many);
  List.iter2
    (fun (n1, (v1 : Vrm.Refinement.verdict))
         (n2, (v2 : Vrm.Refinement.verdict)) ->
      Alcotest.(check string) "order preserved" n1 n2;
      Alcotest.(check bool) (n1 ^ " holds equal") v1.Vrm.Refinement.holds
        v2.Vrm.Refinement.holds;
      Alcotest.(check string) (n1 ^ " sc digest")
        (digest_behaviors v1.Vrm.Refinement.sc)
        (digest_behaviors v2.Vrm.Refinement.sc);
      Alcotest.(check string) (n1 ^ " rm digest")
        (digest_behaviors v1.Vrm.Refinement.rm)
        (digest_behaviors v2.Vrm.Refinement.rm))
    direct many

(* The kernel-corpus refinement sweep, pinned by one digest: md5 over
   the "|"-joined per-entry [digest(sc) ^ digest(rm)] that
   {!Vrm.Refinement.check_many} returns for the corpus and the
   seeded-bug corpus. Domain count, POR, thread symmetry and the
   certification cache are all verdict-preserving, so every
   configuration must land on the same digest; with POR on the oracle
   must also prune, and at jobs=4 the striped seen set must report a
   sane shape. *)
let sweep_digest = "6e491ed7dba45c37d04157d3904a6851"

let test_sweep_digest () =
  let sweep ~jobs ~por ~sym ~cert_cache =
    let specs =
      List.map
        (fun (e : Sekvm.Kernel_progs.entry) ->
          ( e.Sekvm.Kernel_progs.name,
            e.Sekvm.Kernel_progs.prog,
            { e.Sekvm.Kernel_progs.rm_config with Promising.cert_cache } ))
        kernel
    in
    let results = Vrm.Refinement.check_many ~jobs ~por ~sym specs in
    let stats =
      List.concat_map
        (fun (_, (v : Vrm.Refinement.verdict)) ->
          [ v.Vrm.Refinement.sc_stats; v.Vrm.Refinement.rm_stats ])
        results
    in
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat "|"
              (List.map
                 (fun (_, (v : Vrm.Refinement.verdict)) ->
                   digest_behaviors v.Vrm.Refinement.sc
                   ^ digest_behaviors v.Vrm.Refinement.rm)
                 results)))
    in
    (digest, stats)
  in
  List.iter
    (fun (label, jobs, por, sym, cert_cache) ->
      let digest, stats = sweep ~jobs ~por ~sym ~cert_cache in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
      let max_of f = List.fold_left (fun acc s -> max acc (f s)) 0 stats in
      Alcotest.(check string) (label ^ ": sweep digest") sweep_digest digest;
      if por then
        Alcotest.(check bool)
          (label ^ ": POR prunes transitions")
          true
          (sum (fun s -> s.Engine.por_pruned) > 0);
      if jobs = 4 then begin
        let occupancy = max_of (fun s -> s.Engine.stripe_occupancy) in
        Alcotest.(check bool)
          (label ^ ": seen-set stripes populated")
          true
          (max_of (fun s -> s.Engine.seen_stripes) > 0);
        Alcotest.(check bool)
          (label ^ ": stripe occupancy positive and bounded")
          true
          (occupancy > 0 && occupancy <= sum (fun s -> s.Engine.visited))
      end)
    [ ("jobs=1", 1, true, true, true);
      ("jobs=2", 2, true, true, true);
      ("jobs=4", 4, true, true, true);
      ("por off jobs=1", 1, false, true, true);
      ("por off jobs=4", 4, false, true, true);
      ("sym off jobs=1", 1, true, false, true);
      ("cert-cache off jobs=1", 1, true, true, false) ]

let () =
  Alcotest.run "engine"
    [ ( "parity",
        [ Alcotest.test_case "behavior sets bit-identical to seed" `Quick
            test_golden_parity ] );
      ( "parallel",
        [ Alcotest.test_case "sc/tso/promising jobs=1 = jobs=4" `Slow
            test_jobs_equivalence;
          Alcotest.test_case "pushpull jobs=1 = jobs=4" `Slow
            test_jobs_equivalence_pushpull;
          Alcotest.test_case "past deadline cancels jobs=4 promptly" `Quick
            test_parallel_cancellation;
          Alcotest.test_case "cancelled partitions classify like sequential"
            `Quick test_deadline_classification;
          Alcotest.test_case "max_states is a global budget" `Quick
            test_global_budget ] );
      ( "por",
        [ Alcotest.test_case "por on/off digests equal everywhere" `Slow
            test_por_equivalence;
          Alcotest.test_case "promising por on/off digests equal" `Slow
            test_por_parity_promising;
          Alcotest.test_case "pushpull por on/off verdicts equal" `Slow
            test_por_parity_pushpull;
          Alcotest.test_case "por strictly reduces visited states" `Quick
            test_por_reduces ] );
      ( "cert-cache",
        [ Alcotest.test_case "on/off digests equal everywhere" `Slow
            test_cert_cache_equivalence;
          Alcotest.test_case "cache fields queries on the kernel corpus"
            `Quick test_cert_cache_hits;
          Alcotest.test_case "check_many = per-entry check" `Slow
            test_check_many_parity ] );
      ( "sweep",
        [ Alcotest.test_case "refinement sweep digest in every configuration"
            `Slow test_sweep_digest ] );
      ( "symmetry",
        [ Alcotest.test_case "sym on/off digests equal everywhere" `Slow
            test_sym_parity_models;
          Alcotest.test_case "pushpull sym on/off verdicts equal" `Slow
            test_sym_parity_pushpull;
          Alcotest.test_case "sym collapses the stress family" `Quick
            test_sym_reduces;
          QCheck_alcotest.to_alcotest qcheck_sym_permutation ] );
      ( "seen-set",
        [ Alcotest.test_case "stripe assignment stable across growth" `Quick
            test_stripe_stability;
          Alcotest.test_case "stripe counters surface in stats" `Quick
            test_seen_set_stats ] );
      ( "stats",
        [ Alcotest.test_case "exploration statistics sane" `Quick
            test_stats_sanity ] ) ]
