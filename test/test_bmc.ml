(* The SAT-based BMC backend cross-validated against the explicit-state
   engines: solver unit tests (pigeonhole UNSAT, assumption cores, random
   3-CNF vs brute force, all-solutions model counts), order-matrix
   model counts, golden digest parity over the whole litmus suite under
   both memory models, pinned digests over the whole fragment,
   random-program equivalence, the high-interleaving writer fan, and the
   bmc payload codec. *)

open Memmodel

(* ---- SAT solver units ---- *)

(* Pigeonhole PHP(p -> h): p pigeons into h holes, UNSAT iff p > h.
   Classic resolution-hard family; exercises learning and restarts. *)
let pigeonhole p h =
  let s = Bmc.Sat.create () in
  let var = Array.init p (fun _ -> Array.init h (fun _ -> Bmc.Sat.new_var s)) in
  for i = 0 to p - 1 do
    Bmc.Sat.add_clause s (Array.to_list var.(i))
  done;
  for j = 0 to h - 1 do
    for i = 0 to p - 1 do
      for i' = i + 1 to p - 1 do
        Bmc.Sat.add_clause s [ -var.(i).(j); -var.(i').(j) ]
      done
    done
  done;
  Bmc.Sat.solve s

let test_pigeonhole () =
  Alcotest.(check bool) "PHP(4->3) unsat" true (pigeonhole 4 3 = Bmc.Sat.Unsat);
  Alcotest.(check bool) "PHP(5->4) unsat" true (pigeonhole 5 4 = Bmc.Sat.Unsat);
  Alcotest.(check bool) "PHP(4->4) sat" true (pigeonhole 4 4 = Bmc.Sat.Sat)

let test_unsat_core () =
  (* clauses: a -> x, b -> ~x, c free. Assuming {a, b, c} is UNSAT and
     the core must be a subset of the assumptions that is itself UNSAT
     (in particular it need not mention c). *)
  let s = Bmc.Sat.create () in
  let a = Bmc.Sat.new_var s in
  let b = Bmc.Sat.new_var s in
  let c = Bmc.Sat.new_var s in
  let x = Bmc.Sat.new_var s in
  Bmc.Sat.add_clause s [ -a; x ];
  Bmc.Sat.add_clause s [ -b; -x ];
  let assumptions = [ a; b; c ] in
  Alcotest.(check bool) "assumptions unsat" true
    (Bmc.Sat.solve ~assumptions s = Bmc.Sat.Unsat);
  let core = Bmc.Sat.unsat_core s in
  Alcotest.(check bool) "core non-empty" true (core <> []);
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.(check bool) "core does not drag in c" true (not (List.mem c core));
  Alcotest.(check bool) "core alone is unsat" true
    (Bmc.Sat.solve ~assumptions:core s = Bmc.Sat.Unsat);
  (* dropping either side of the conflict makes it satisfiable again *)
  Alcotest.(check bool) "a alone sat" true
    (Bmc.Sat.solve ~assumptions:[ a; c ] s = Bmc.Sat.Sat)

(* Random 3-CNF instances near the phase transition, checked against a
   brute-force enumeration; when the solver answers Sat its model must
   satisfy every clause. *)
let test_random_3cnf () =
  Random.init 0x5eed;
  for _ = 1 to 200 do
    let nvars = 4 + Random.int 5 in
    let nclauses = 5 + Random.int (4 * nvars) in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.int nvars in
              if Random.bool () then v else -v))
    in
    let s = Bmc.Sat.create () in
    for _ = 1 to nvars do
      ignore (Bmc.Sat.new_var s)
    done;
    List.iter (Bmc.Sat.add_clause s) clauses;
    let verdict = Bmc.Sat.solve s in
    let eval assign =
      List.for_all
        (List.exists (fun l ->
             if l > 0 then assign.(l - 1) else not assign.(-l - 1)))
        clauses
    in
    let brute = ref false in
    for m = 0 to (1 lsl nvars) - 1 do
      if not !brute then
        if eval (Array.init nvars (fun i -> m land (1 lsl i) <> 0)) then
          brute := true
    done;
    Alcotest.(check bool) "solver verdict matches brute force" !brute
      (verdict = Bmc.Sat.Sat);
    if verdict = Bmc.Sat.Sat then
      Alcotest.(check bool) "model satisfies the formula" true
        (eval (Array.init nvars (fun i -> Bmc.Sat.value s (i + 1))))
  done

(* Every model of [s] over all its variables, by all-solutions
   enumeration: after each [Sat] answer the model is blocked with a
   clause added between solves, so learned clauses and the watch
   vectors carry over from one solve to the next. [on_model] sees each
   model before it is blocked. *)
let enumerate_models ?(on_model = fun _ -> ()) s =
  let vars = List.init (Bmc.Sat.n_vars s) (fun i -> i + 1) in
  let rec go k =
    match Bmc.Sat.solve s with
    | Bmc.Sat.Unsat -> k
    | Bmc.Sat.Sat ->
        let model = List.map (fun v -> Bmc.Sat.value s v) vars in
        on_model model;
        Bmc.Sat.add_clause s
          (List.map2 (fun v b -> if b then -v else v) vars model);
        go (k + 1)
  in
  go 0

(* Random 3-CNFs below the phase transition, so most have many models:
   enumerating them all must give exactly the brute-force count, every
   model must satisfy the formula, and no model may repeat. *)
let test_random_cnf_enumeration () =
  Random.init 0xb10c;
  for _ = 1 to 150 do
    let nvars = 3 + Random.int 7 in
    let nclauses = Random.int (3 * nvars) in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.int nvars in
              if Random.bool () then v else -v))
    in
    let eval assign =
      List.for_all
        (List.exists (fun l ->
             if l > 0 then assign.(l - 1) else not assign.(-l - 1)))
        clauses
    in
    let brute = ref 0 in
    for m = 0 to (1 lsl nvars) - 1 do
      if eval (Array.init nvars (fun i -> m land (1 lsl i) <> 0)) then
        incr brute
    done;
    let s = Bmc.Sat.create () in
    for _ = 1 to nvars do
      ignore (Bmc.Sat.new_var s)
    done;
    List.iter (Bmc.Sat.add_clause s) clauses;
    let seen = Hashtbl.create 64 in
    let on_model model =
      if not (eval (Array.of_list model)) then
        Alcotest.fail "enumerated model violates the formula";
      if Hashtbl.mem seen model then Alcotest.fail "model enumerated twice";
      Hashtbl.add seen model ()
    in
    Alcotest.(check int) "model count matches brute force" !brute
      (enumerate_models ~on_model s)
  done

(* ---- order-matrix encoding ---- *)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* A tournament is a total order iff it has no 3-cycle, so an order
   matrix with its transitivity clauses alone has exactly one model per
   permutation of its class: n! for n events. The global family has one
   class over every event; the per-location family shares one matrix
   between disjoint classes, here every even event of a 2n-event combo
   beside a two-event class of odd ones (2·n! models). *)
let test_order_matrix () =
  for n = 1 to 5 do
    let b = Bmc.Cnf.create () in
    let mx = Bmc.Encode.matrix n in
    Bmc.Encode.add_class b mx (Array.init n Fun.id);
    Alcotest.(check int)
      (Printf.sprintf "global matrix, %d events" n)
      (factorial n)
      (enumerate_models b.Bmc.Cnf.sat);
    let b = Bmc.Cnf.create () in
    let mx = Bmc.Encode.matrix (2 * n) in
    let evens = Array.init n (fun i -> 2 * i) in
    Bmc.Encode.add_class b mx evens;
    Alcotest.(check int)
      (Printf.sprintf "per-location matrix, %d events" n)
      (factorial n)
      (enumerate_models b.Bmc.Cnf.sat);
    let b = Bmc.Cnf.create () in
    let mx = Bmc.Encode.matrix (2 * n) in
    Bmc.Encode.add_class b mx evens;
    Bmc.Encode.add_class b mx [| 1; (2 * n) - 1 |];
    let cross () = ignore (Bmc.Encode.ord mx 0 1) in
    if n > 1 then begin
      Alcotest.(check int)
        (Printf.sprintf "two location classes, %d + 2 events" n)
        (2 * factorial n)
        (enumerate_models b.Bmc.Cnf.sat);
      Alcotest.check_raises "no entry across classes" Not_found cross
    end;
    Alcotest.check_raises "no entry on the diagonal" Not_found (fun () ->
        ignore (Bmc.Encode.ord mx 0 0))
  done;
  (* exactly two clauses per unordered triple *)
  let b = Bmc.Cnf.create () in
  Bmc.Encode.add_class b (Bmc.Encode.matrix 6) (Array.init 6 Fun.id);
  Alcotest.(check int) "2·C(6,3) transitivity clauses" 40
    (Bmc.Sat.n_clauses b.Bmc.Cnf.sat)

(* ---- golden digest parity over the litmus suite ---- *)

let test_suite_parity () =
  List.iter
    (fun (t : Litmus.t) ->
      let prog = t.Litmus.prog in
      let d = Fingerprint.behaviors in
      let sc_ref = Sc.run prog and sc_bmc = Bmc.run_sc prog in
      if d sc_ref <> d sc_bmc then
        Alcotest.failf "%s: SC digest divergence@.explicit: %a@.bmc: %a"
          prog.Prog.name Behavior.pp sc_ref Behavior.pp sc_bmc;
      let rm_ref = Axiomatic.run prog and rm_bmc = Bmc.run prog in
      if d rm_ref <> d rm_bmc then
        Alcotest.failf "%s: Arm digest divergence@.explicit: %a@.bmc: %a"
          prog.Prog.name Behavior.pp rm_ref Behavior.pp rm_bmc)
    Litmus_suite.all

let test_suite_verdicts () =
  (* the BMC behavior set must decide every suite test's exists-clause
     exactly as the recorded expectations say *)
  List.iter
    (fun (t : Litmus.t) ->
      let rm = Bmc.check ~mode:Bmc.Arm t.Litmus.prog in
      let sc = Bmc.check ~mode:Bmc.Sc t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " complete")
        true
        (rm.Bmc.complete && sc.Bmc.complete);
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " rm verdict")
        t.Litmus.expect_rm
        (Behavior.satisfiable t.Litmus.exists rm.Bmc.behaviors);
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " sc verdict")
        t.Litmus.expect_sc
        (Behavior.satisfiable t.Litmus.exists sc.Bmc.behaviors))
    Litmus_suite.all

(* ---- golden digests over the whole fragment ---- *)

let corpus_programs () =
  let module K = Sekvm.Kernel_progs in
  List.map (fun (t : Litmus.t) -> t.Litmus.prog)
    (Paper_examples.all @ Litmus_suite.all)
  @ List.map
      (fun (e : K.entry) -> e.K.prog)
      (K.corpus @ K.buggy_corpus @ K.boundary_corpus @ K.lint_corpus
     @ K.sym_corpus)

(* [Fingerprint.behaviors] digest and [complete] flag of [Bmc.check] per
   program, (Arm, SC). These are behavior sets, not solver statistics:
   a change to the encoding or the solver must keep every one
   byte-identical. The three [false] entries are bound-limited. *)
let golden_bmc =
  [
    ( "example1-ooo-write",
      ("2b4469770ae30fca187483d89d7ba355", true),
      ("99e322099b2c53283986b87c0a014695", true) );
    ( "example3-vcpu-nobarrier",
      ("cd08ee6c6e219667c3a72e50bdf459f7", true),
      ("c658069ca13752d2c6185b6c6a438482", true) );
    ( "example3-vcpu-relacq",
      ("c658069ca13752d2c6185b6c6a438482", true),
      ("c658069ca13752d2c6185b6c6a438482", true) );
    ( "mp-plain",
      ("8a1956d204a27c98cd7a5c22d3f822d6", true),
      ("1fc71a64d57b706e44324895c1fd6b47", true) );
    ( "mp-dmb",
      ("1fc71a64d57b706e44324895c1fd6b47", true),
      ("1fc71a64d57b706e44324895c1fd6b47", true) );
    ( "mp-rel-acq",
      ("1fc71a64d57b706e44324895c1fd6b47", true),
      ("1fc71a64d57b706e44324895c1fd6b47", true) );
    ( "sb-plain",
      ("36f6b4f1b45f73a9114ef19366b8163c", true),
      ("2fadd2cef85290b12756d3c89f689d1a", true) );
    ( "sb-dmb",
      ("2fadd2cef85290b12756d3c89f689d1a", true),
      ("2fadd2cef85290b12756d3c89f689d1a", true) );
    ( "lb-data",
      ("7c83c1216d153afc32725fcea4cc28be", true),
      ("7c83c1216d153afc32725fcea4cc28be", true) );
    ( "corr",
      ("b770567301caf5eb129c8c144d47b730", true),
      ("b770567301caf5eb129c8c144d47b730", true) );
    ( "mp-dmb-addr",
      ("a487374b14a070aaf90e4600a9a37966", true),
      ("a487374b14a070aaf90e4600a9a37966", true) );
    ( "s-plain",
      ("2664ecbfbb4e3219001881f95d3ec8ec", true),
      ("54c1dbcbf906a10e77b5e654beaa10fa", true) );
    ( "s-dmb",
      ("54c1dbcbf906a10e77b5e654beaa10fa", true),
      ("54c1dbcbf906a10e77b5e654beaa10fa", true) );
    ( "2+2w-plain",
      ("1113e7e201844f72ce566b35426dc5c3", true),
      ("4fe5f2f1167674eae7f11175aed10525", true) );
    ( "2+2w-dmbst",
      ("4fe5f2f1167674eae7f11175aed10525", true),
      ("4fe5f2f1167674eae7f11175aed10525", true) );
    ( "wrc-plain",
      ("69e09ce614011f6e040bf34c0af62bf7", true),
      ("fc117c6eaebeec0a24117d84f6474bbd", true) );
    ( "wrc-dmb",
      ("fc117c6eaebeec0a24117d84f6474bbd", true),
      ("fc117c6eaebeec0a24117d84f6474bbd", true) );
    ( "wrc-addr",
      ("092bf53ddcf4e7e0885a73578c14959f", true),
      ("092bf53ddcf4e7e0885a73578c14959f", true) );
    ( "isa2-dmb",
      ("fc117c6eaebeec0a24117d84f6474bbd", true),
      ("fc117c6eaebeec0a24117d84f6474bbd", true) );
    ( "mp-dmb-ctrl",
      ("225a0f95e4b95a74ac0dfd1c450da8b9", true),
      ("defb4a92ef00e582140d49b3daa905fd", true) );
    ( "mp-dmb-ctrl-isb",
      ("defb4a92ef00e582140d49b3daa905fd", true),
      ("defb4a92ef00e582140d49b3daa905fd", true) );
    ( "lb-ctrl",
      ("864e63470fbdb68da2f9eeba9e8f1e9a", true),
      ("864e63470fbdb68da2f9eeba9e8f1e9a", true) );
    ( "cowr",
      ("9ca172a8e46d8a166dd9db7638bf041f", true),
      ("9ca172a8e46d8a166dd9db7638bf041f", true) );
    ( "corw1",
      ("3ae0377195d1782cf84796589edcc3f0", true),
      ("3ae0377195d1782cf84796589edcc3f0", true) );
    ( "sb-one-dmb",
      ("36f6b4f1b45f73a9114ef19366b8163c", true),
      ("2fadd2cef85290b12756d3c89f689d1a", true) );
    ( "rel-acq-two-fields",
      ("310ab5cfccacb55d6aff4543547b8e6c", true),
      ("310ab5cfccacb55d6aff4543547b8e6c", true) );
    ( "r-plain",
      ("fda8c281912c9b76c7b16bf11f306852", true),
      ("34b70a1ef20c848c98bea1cd2b20c18f", true) );
    ( "r-dmb",
      ("34b70a1ef20c848c98bea1cd2b20c18f", true),
      ("34b70a1ef20c848c98bea1cd2b20c18f", true) );
    ( "corr-total",
      ("d9179033498b58655f3dbde7c957eac8", true),
      ("d9179033498b58655f3dbde7c957eac8", true) );
    ( "sb-rel-acq",
      ("2fadd2cef85290b12756d3c89f689d1a", true),
      ("2fadd2cef85290b12756d3c89f689d1a", true) );
    ( "vcpu-switch",
      ("b3a3ee4b0fd10adbe42f755a2dcff391", true),
      ("b3a3ee4b0fd10adbe42f755a2dcff391", true) );
    ( "vm-boot-state",
      ("0ad2f87c4aea5e398fd0e1a55a227c76", false),
      ("0ad2f87c4aea5e398fd0e1a55a227c76", false) );
    ( "share-page",
      ("e46710cf3dde4c293b3856bbb4b4c032", false),
      ("e46710cf3dde4c293b3856bbb4b4c032", false) );
    ( "vcpu-switch-nobarrier",
      ("ea03959bf7d75f90a5bf86aa584b3797", true),
      ("b3a3ee4b0fd10adbe42f755a2dcff391", true) );
    ( "unlocked-counter",
      ("73ef2ef515dd0086a2b64b8df39df110", true),
      ("73ef2ef515dd0086a2b64b8df39df110", true) );
    ( "push-without-pull",
      ("0b209fbb1ee44d0028de5297ee9ec421", true),
      ("0b209fbb1ee44d0028de5297ee9ec421", true) );
    ( "pt-walker-race",
      ("a7eecb04bb0fb018f17aa8f793c27759", true),
      ("a5b20fbd8df64551531670a77980ba62", true) );
    ( "handoff-missing-dmb",
      ("eac7100bcdbe0e25e342404184073e9a", true),
      ("4f664c902e2f7e065febea8c658ed25c", true) );
    ( "el2-double-map",
      ("d2039125b0f7af42414214735fa04427", true),
      ("d2039125b0f7af42414214735fa04427", true) );
    ( "read-outside-lock",
      ("6d7280af352f53e1f087b58e23774751", false),
      ("6d7280af352f53e1f087b58e23774751", false) );
    ( "pull-no-push",
      ("8abbc4dc66a5c91075a299509d336e44", true),
      ("8abbc4dc66a5c91075a299509d336e44", true) );
    ( "remap-no-tlbi",
      ("83ee50c410754fc440d6314ccde9b347", true),
      ("83ee50c410754fc440d6314ccde9b347", true) );
    ( "tlbi-before-write",
      ("ff7d28519b7d108daf23341a5a840ec3", true),
      ("ff7d28519b7d108daf23341a5a840ec3", true) );
    ( "split-transaction",
      ("0acc4c7e2c1f7aa4e6e8f6d364bb9ea3", true),
      ("fdf353511c9cde195ef0b6ea527c5a4b", true) );
    ( "walker-no-isb",
      ("c06e0d239899d2bc0d0bf30108e94bba", true),
      ("c06e0d239899d2bc0d0bf30108e94bba", true) );
    ( "el2-loop-remap",
      ("f6e582797e2ca1f05b4c8821e46ee700", true),
      ("f6e582797e2ca1f05b4c8821e46ee700", true) );
    ( "sym-stress-3",
      ("e2ba3565413a5ff5de6935bcb45c51b6", true),
      ("e2ba3565413a5ff5de6935bcb45c51b6", true) );
    ( "sym-stress-4",
      ("22f676c94fed31b928956f59a9792811", true),
      ("22f676c94fed31b928956f59a9792811", true) );
    ( "sym-stress-5",
      ("1060c3bea912f59684dc6604fd33634c", true),
      ("1060c3bea912f59684dc6604fd33634c", true) ) ]

(* Programs outside the fragment (panic, xchg/cas, trapping address
   arithmetic) raise [Bmc.Unsupported] and are skipped; the pinned
   names must be exactly the ones that remain. *)
let test_golden_digests () =
  let decided =
    List.filter_map
      (fun (p : Prog.t) ->
        match (Bmc.check ~mode:Bmc.Arm p, Bmc.check ~mode:Bmc.Sc p) with
        | arm, sc -> Some (p.Prog.name, arm, sc)
        | exception Bmc.Unsupported _ -> None)
      (corpus_programs ())
  in
  Alcotest.(check (list string))
    "every fragment program is pinned"
    (List.map (fun (name, _, _) -> name) golden_bmc)
    (List.map (fun (name, _, _) -> name) decided);
  List.iter2
    (fun (name, arm, sc) (_, arm_pin, sc_pin) ->
      List.iter
        (fun (label, (r : Bmc.result), (digest, complete)) ->
          let what = Printf.sprintf "%s %s" name label in
          Alcotest.(check string) (what ^ " digest") digest
            (Fingerprint.behaviors r.Bmc.behaviors);
          Alcotest.(check bool) (what ^ " complete") complete r.Bmc.complete)
        [ ("arm", arm, arm_pin); ("sc", sc, sc_pin) ])
    decided golden_bmc

(* ---- random straight-line equivalence ---- *)

let gen_thread tid =
  let open QCheck.Gen in
  let base = oneofl [ "x"; "y" ] in
  let fresh_reg =
    let c = ref 0 in
    fun () ->
      incr c;
      Reg.v (Printf.sprintf "t%d_r%d" tid !c)
  in
  let lord = oneofl [ Instr.Plain; Instr.Acquire ] in
  let word = oneofl [ Instr.Plain; Instr.Release ] in
  let instr =
    frequency
      [ (3, map2 (fun b o -> `Load (b, o)) base lord);
        (3, map3 (fun b v o -> `Store (b, v, o)) base (int_range 1 2) word);
        (1, map2 (fun b o -> `Faa (b, o)) base lord);
        (1, oneofl [ `Dmb Instr.Dmb_full; `Dmb Instr.Dmb_ld; `Dmb Instr.Dmb_st ])
      ]
  in
  let rec build n acc =
    if n = 0 then return (List.rev acc)
    else
      instr >>= fun op ->
      let i =
        match op with
        | `Load (b, o) -> Instr.load ~order:o (fresh_reg ()) (Expr.at b)
        | `Store (b, v, o) -> Instr.store ~order:o (Expr.at b) (Expr.c v)
        | `Faa (b, o) -> Instr.faa ~order:o (fresh_reg ()) (Expr.at b) (Expr.c 1)
        | `Dmb k -> Instr.Barrier k
      in
      build (n - 1) (i :: acc)
  in
  int_range 1 3 >>= fun n -> build n []

let gen_prog =
  QCheck.Gen.map2
    (fun c1 c2 ->
      Prog.make ~name:"rand-bmc"
        ~observables:
          [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
            Prog.Obs_reg (1, Reg.v "t1_r1"); Prog.Obs_reg (2, Reg.v "t2_r1") ]
        [ Prog.thread 1 c1; Prog.thread 2 c2 ])
    (gen_thread 1) (gen_thread 2)

let report_mismatch prog a b =
  Format.eprintf "@.MISMATCH on:@.";
  List.iter
    (fun th ->
      Format.eprintf "thread %d:@." th.Prog.tid;
      List.iter (fun i -> Format.eprintf "  %s@." (Instr.show i)) th.Prog.code)
    prog.Prog.threads;
  Format.eprintf "explicit-only: %a@.bmc-only: %a@." Behavior.pp
    (Behavior.diff a b) Behavior.pp (Behavior.diff b a)

let qcheck_arm_equiv =
  QCheck.Test.make ~name:"Bmc.run = Axiomatic.run on random programs"
    ~count:400 (QCheck.make gen_prog) (fun prog ->
      let ax = Axiomatic.run prog in
      let bm = Bmc.run prog in
      if Behavior.equal ax bm then true
      else begin
        report_mismatch prog ax bm;
        false
      end)

let qcheck_sc_equiv =
  QCheck.Test.make ~name:"Bmc.run_sc = Sc.run on random programs" ~count:400
    (QCheck.make gen_prog) (fun prog ->
      let sc = Sc.run prog in
      let bm = Bmc.run_sc prog in
      if Behavior.equal sc bm then true
      else begin
        report_mismatch prog sc bm;
        false
      end)

(* ---- fragment boundary and bound semantics ---- *)

let test_unsupported_message () =
  let prog =
    Prog.make ~name:"frag" ~observables:[]
      [ Prog.thread 1 [ Instr.Nop; Instr.Panic ] ]
  in
  match Bmc.run prog with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Bmc.Unsupported msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      let mem needle =
        Alcotest.(check bool)
          (Printf.sprintf "message %S mentions %s" msg needle)
          true (contains msg needle)
      in
      mem "thread 1";
      mem "pc 1"

let test_bound_limited () =
  (* a loop that runs past the default unrolling bound: the verdict must
     be flagged bound-limited, never silently complete *)
  let ri = Reg.v "i" in
  let x = Expr.at "x" in
  let prog =
    Prog.make ~name:"loopy" ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.move ri (Expr.c 0);
            Instr.while_
              Expr.(r ri < c 100)
              [ Instr.store x (Expr.r ri); Instr.move ri Expr.(r ri + c 1) ]
          ]
      ]
  in
  let res = Bmc.check ~mode:Bmc.Sc prog in
  Alcotest.(check bool) "bound-limited" false res.Bmc.complete;
  (* a loop that exits within the bound is complete *)
  let short =
    Prog.make ~name:"shorty" ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.move ri (Expr.c 0);
            Instr.while_
              Expr.(r ri < c 2)
              [ Instr.store x (Expr.r ri); Instr.move ri Expr.(r ri + c 1) ]
          ]
      ]
  in
  Alcotest.(check bool) "within bound is complete" true
    (Bmc.check ~mode:Bmc.Sc short).Bmc.complete

(* The writer fan: N threads each storing 1 to [x], one reader loading
   [x] twice. Same-location writes conflict, so the explicit SC
   enumerator's state space grows as ~2^N, while the behavior set is
   always the same 3 outcomes — (r0,r1) in {(0,0),(0,1),(1,1)}; (1,0)
   is forbidden by coherence. The SAT backend's work scales with the
   observationally distinct models, so it must decide the fan completely
   at sizes the explicit enumerator cannot finish in interactive time. *)
let writer_fan n =
  let x = Expr.at "x" in
  let r0 = Reg.v "r0" and r1 = Reg.v "r1" in
  let writers =
    List.init n (fun i -> Prog.thread (i + 2) [ Instr.store x (Expr.c 1) ])
  in
  Prog.make
    ~name:(Printf.sprintf "writer-fan-%d" n)
    ~observables:[ Prog.Obs_reg (1, r0); Prog.Obs_reg (1, r1) ]
    (Prog.thread 1 [ Instr.load r0 x; Instr.load r1 x ] :: writers)

let test_writer_fan () =
  List.iter
    (fun n ->
      let r = Bmc.check ~mode:Bmc.Sc (writer_fan n) in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d complete" n)
        true r.Bmc.complete;
      Alcotest.(check int)
        (Printf.sprintf "N=%d outcomes" n)
        3
        (Behavior.cardinal r.Bmc.behaviors))
    [ 14; 18 ]

(* ---- codec round-trip ---- *)

let test_codec_roundtrip () =
  let t = List.hd Litmus_suite.all in
  let rm = Bmc.check ~mode:Bmc.Arm t.Litmus.prog in
  let sc = Bmc.check ~mode:Bmc.Sc t.Litmus.prog in
  let s = Cache.Codec.bmc_summary t ~rm ~sc in
  let j = Cache.Codec.bmc_to_json s in
  let s' = Cache.Codec.bmc_of_json j in
  Alcotest.(check string) "prog digest" s.Cache.Codec.b_prog_digest
    s'.Cache.Codec.b_prog_digest;
  Alcotest.(check bool) "rm behaviors" true
    (Behavior.equal s.Cache.Codec.b_rm s'.Cache.Codec.b_rm);
  Alcotest.(check bool) "sc behaviors" true
    (Behavior.equal s.Cache.Codec.b_sc s'.Cache.Codec.b_sc);
  Alcotest.(check bool) "rm_sat preserved" s.Cache.Codec.b_rm_sat
    s'.Cache.Codec.b_rm_sat;
  (* tampering with the behavior set must trip the digest check *)
  let tampered =
    match j with
    | Cache.Json.Obj fields ->
        Cache.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "rm_digest" then (k, Cache.Json.String "deadbeef")
               else (k, v))
             fields)
    | _ -> Alcotest.fail "bmc payload is not an object"
  in
  match Cache.Codec.bmc_of_json tampered with
  | _ -> Alcotest.fail "tampered payload accepted"
  | exception Cache.Json.Decode _ -> ()

let () =
  Alcotest.run "bmc"
    [ ( "sat",
        [ Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          Alcotest.test_case "assumption cores" `Quick test_unsat_core;
          Alcotest.test_case "random 3-cnf vs brute force" `Quick
            test_random_3cnf;
          Alcotest.test_case "random cnf all-solutions counts" `Quick
            test_random_cnf_enumeration ] );
      ( "encode",
        [ Alcotest.test_case "order matrix has n! models" `Quick
            test_order_matrix ] );
      ( "parity",
        [ Alcotest.test_case "litmus-suite digest parity" `Quick
            test_suite_parity;
          Alcotest.test_case "litmus-suite verdicts" `Quick
            test_suite_verdicts;
          Alcotest.test_case "golden fragment digests" `Quick
            test_golden_digests ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_arm_equiv;
          QCheck_alcotest.to_alcotest qcheck_sc_equiv ] );
      ( "fragment",
        [ Alcotest.test_case "unsupported names thread and pc" `Quick
            test_unsupported_message;
          Alcotest.test_case "bound-limited verdicts" `Quick
            test_bound_limited;
          Alcotest.test_case "writer fan decided completely" `Quick
            test_writer_fan ] );
      ( "codec",
        [ Alcotest.test_case "bmc payload round-trip" `Quick
            test_codec_roundtrip ] ) ]
