(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§2 examples, Table 1, Tables 2+3, Table 4 + Fig. 8,
   Fig. 9, and the §5 certification summary), checks each against the
   paper's reported shape, and times the artifact generators with
   Bechamel (one Test.make per table/figure).

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let check label ok =
  Format.printf "  [%s] %s@." (if ok then "OK" else "FAIL") label;
  ok

let all_ok = ref true
let expect label ok = if not (check label ok) then all_ok := false

(* ------------------------------------------------------------------ *)
(* §2: the RM-behavior examples                                        *)
(* ------------------------------------------------------------------ *)

let litmus_results =
  lazy (List.map Memmodel.Litmus.run Memmodel.Paper_examples.all)

let print_examples () =
  section "Section 2 examples: relaxed-memory bugs invisible on SC";
  Format.printf "%-26s %-10s %-10s %s@." "test" "SC" "RM" "status";
  List.iter
    (fun (r : Memmodel.Litmus.result) ->
      Format.printf "%-26s %-10s %-10s %s@." r.test.prog.Memmodel.Prog.name
        (if r.sc_sat then "reachable" else "no")
        (if r.rm_sat then "reachable" else "no")
        (if r.as_expected then "ok" else "UNEXPECTED"))
    (Lazy.force litmus_results);
  let r7 =
    List.find
      (fun (r : Memmodel.Litmus.result) ->
        r.test.prog.Memmodel.Prog.name = "example7-user-to-kernel")
      (Lazy.force litmus_results)
  in
  expect "every §2 example behaves as the paper describes"
    (List.for_all
       (fun (r : Memmodel.Litmus.result) -> r.as_expected)
       (Lazy.force litmus_results));
  expect "example 7 panics only on RM" (r7.rm_panic && not r7.sc_panic);
  (* Examples 4-6 live on the machine substrate *)
  let e6_bad =
    Machine.Tlb_sim.stale_tlb_possible Machine.Tlb_sim.unmap_no_barrier
  in
  let e6_good =
    not (Machine.Tlb_sim.stale_tlb_possible Machine.Tlb_sim.unmap_with_barrier)
  in
  expect "example 6: stale TLB iff the barrier is missing" (e6_bad && e6_good)

(* ------------------------------------------------------------------ *)
(* Table 1: proof/checker effort breakdown                             *)
(* ------------------------------------------------------------------ *)

let count_loc dir =
  let rec files d =
    if Sys.file_exists d && Sys.is_directory d then
      Array.to_list (Sys.readdir d)
      |> List.concat_map (fun f -> files (Filename.concat d f))
    else if Filename.check_suffix d ".ml" then [ d ]
    else []
  in
  List.fold_left
    (fun acc f ->
      let ic = open_in f in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      acc + !n)
    0 (files dir)

let print_table1 () =
  section "Table 1: effort breakdown (paper: Coq LOC; here: OCaml LOC)";
  let rows =
    [ ( "VRM framework (models + checkers)",
        count_loc "lib/core" + count_loc "lib/memmodel",
        "3.4K Coq" );
      ( "SeKVM satisfies wDRF (corpus + audits)",
        count_loc "lib/sekvm",
        "3.8K Coq" );
      ( "SeKVM substrate + security on SC",
        count_loc "lib/machine",
        "34.2K Coq (original SC proofs)" ) ]
  in
  Format.printf "%-42s %8s   %s@." "component" "LOC" "paper analog";
  List.iter
    (fun (n, loc, paper) -> Format.printf "%-42s %8d   %s@." n loc paper)
    rows;
  expect "all components non-empty (run from the repository root)"
    (List.for_all (fun (_, l, _) -> l > 0) rows)

(* ------------------------------------------------------------------ *)
(* Tables 2 + 3: microbenchmarks                                       *)
(* ------------------------------------------------------------------ *)

let table3 = lazy (Perf.Micro.table3 ())

let print_table3 () =
  section "Table 2+3: microbenchmarks (simulated cycles; shape vs paper)";
  Format.printf "%-12s %-8s %8s %8s %7s %7s@." "bench" "hw" "KVM" "SeKVM"
    "ratio" "paper";
  List.iter
    (fun (r : Perf.Micro.row) ->
      Format.printf "%-12s %-8s %8d %8d %7.2f %7.2f@." r.bench.Perf.Micro.name
        r.hw_name r.kvm_cycles r.sekvm_cycles r.overhead
        (Option.value ~default:nan
           (Perf.Micro.paper_overhead r.bench.Perf.Micro.name r.hw_name)))
    (Lazy.force table3);
  let rows = Lazy.force table3 in
  let ratio name hw =
    (List.find
       (fun (r : Perf.Micro.row) ->
         r.bench.Perf.Micro.name = name && r.hw_name = hw)
       rows)
      .Perf.Micro.overhead
  in
  expect "SeKVM slower than KVM everywhere"
    (List.for_all (fun (r : Perf.Micro.row) -> r.overhead > 1.0) rows);
  expect "m400 overheads much larger than Seattle's (tiny TLB)"
    (List.for_all
       (fun b -> ratio b "m400" > ratio b "seattle" +. 0.3)
       [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ]);
  expect "Seattle overhead in the paper's 17-28% band (+/- 5%)"
    (List.for_all
       (fun b ->
         let r = ratio b "seattle" in
         r >= 1.12 && r <= 1.33)
       [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ]);
  expect "m400 overhead around 2x, as measured"
    (List.for_all
       (fun b ->
         let r = ratio b "m400" in
         r >= 1.5 && r <= 2.6)
       [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ]);
  (* 3-level stage-2 exists to help small-TLB parts: nested misses cost
     fewer memory accesses (the §5.6 motivation) *)
  let t3 = Perf.Micro.table3 ~stage2_levels:3 () in
  let r3 =
    (List.find
       (fun (r : Perf.Micro.row) ->
         r.bench.Perf.Micro.name = "Hypercall" && r.hw_name = "m400")
       t3)
      .Perf.Micro.overhead
  in
  expect "3-level stage-2 reduces m400 overhead" (r3 < ratio "Hypercall" "m400")

(* ------------------------------------------------------------------ *)
(* Table 4 + Figure 8: single-VM application benchmarks                *)
(* ------------------------------------------------------------------ *)

let fig8 = lazy (Perf.App_sim.figure8 ())

let print_fig8 () =
  section "Table 4 + Figure 8: application benchmarks, one VM";
  List.iter
    (fun (w : Perf.Workload.t) ->
      Format.printf "%-10s - %s@." w.name w.description)
    Perf.Workload.all;
  Format.printf "@.%-10s %-8s %-6s %9s %9s %9s@." "workload" "hw" "linux"
    "KVM" "SeKVM" "overhead";
  let pts = Lazy.force fig8 in
  let overheads = ref [] in
  List.iter
    (fun (w : Perf.Workload.t) ->
      List.iter
        (fun hw ->
          List.iter
            (fun v ->
              let find hyp =
                (List.find
                   (fun (p : Perf.App_sim.point) ->
                     p.workload.Perf.Workload.name = w.name
                     && p.hw_name = hw && p.version = v && p.hypervisor = hyp)
                   pts)
                  .Perf.App_sim.normalized_perf
              in
              let kvm = find Perf.Cost_model.Kvm
              and sekvm = find Perf.Cost_model.Sekvm in
              let ov = (kvm /. sekvm) -. 1.0 in
              overheads := ov :: !overheads;
              Format.printf "%-10s %-8s %-6s %9.3f %9.3f %8.1f%%@." w.name hw
                (Perf.App_sim.version_name v) kvm sekvm (ov *. 100.))
            [ Perf.App_sim.V4_18; Perf.App_sim.V5_4 ])
        [ "m400"; "seattle" ])
    Perf.Workload.all;
  expect "worst-case SeKVM overhead vs KVM below 10% (the Fig. 8 claim)"
    (List.for_all (fun ov -> ov < 0.10) !overheads);
  expect "every configuration runs above 75% of native"
    (List.for_all
       (fun (p : Perf.App_sim.point) -> p.normalized_perf > 0.75)
       pts)

(* ------------------------------------------------------------------ *)
(* Figure 9: multi-VM scalability                                      *)
(* ------------------------------------------------------------------ *)

let fig9 = lazy (Perf.Multi_vm.figure9 ())

let print_fig9 () =
  section "Figure 9: 1-32 concurrent VMs on the m400";
  let pts = Lazy.force fig9 in
  Format.printf "%-10s %-6s" "workload" "hyp";
  List.iter
    (fun n -> Format.printf " %7s" (Printf.sprintf "N=%d" n))
    Perf.Multi_vm.vm_counts;
  Format.printf "@.";
  List.iter
    (fun (w : Perf.Workload.t) ->
      List.iter
        (fun hyp ->
          Format.printf "%-10s %-6s" w.name
            (match hyp with
            | Perf.Cost_model.Kvm -> "kvm"
            | Perf.Cost_model.Sekvm -> "sekvm");
          List.iter
            (fun n ->
              let p =
                List.find
                  (fun (p : Perf.Multi_vm.point) ->
                    p.workload.Perf.Workload.name = w.name
                    && p.n_vms = n && p.hypervisor = hyp)
                  pts
              in
              Format.printf " %7.3f" p.Perf.Multi_vm.normalized_perf)
            Perf.Multi_vm.vm_counts;
          Format.printf "@.")
        [ Perf.Cost_model.Kvm; Perf.Cost_model.Sekvm ])
    Perf.Workload.all;
  let series w hyp =
    List.map
      (fun n ->
        (List.find
           (fun (p : Perf.Multi_vm.point) ->
             p.workload.Perf.Workload.name = w
             && p.n_vms = n && p.hypervisor = hyp)
           pts)
          .Perf.Multi_vm.normalized_perf)
      Perf.Multi_vm.vm_counts
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && mono rest
    | _ -> true
  in
  expect "per-instance performance decreases with VM count"
    (List.for_all
       (fun (w : Perf.Workload.t) ->
         mono (series w.name Perf.Cost_model.Kvm)
         && mono (series w.name Perf.Cost_model.Sekvm))
       Perf.Workload.all);
  expect "SeKVM within 10% of KVM at every VM count (the Fig. 9 claim)"
    (List.for_all
       (fun (w : Perf.Workload.t) ->
         Perf.Multi_vm.worst_gap pts ~workload:w.Perf.Workload.name < 0.10)
       Perf.Workload.all)

(* ------------------------------------------------------------------ *)
(* §4: the framework's theorems, executably                            *)
(* ------------------------------------------------------------------ *)

let print_theorems () =
  section "Section 4: the wDRF theorems, executable";
  (* Theorem 1/2: certified corpus refines; buggy variants don't *)
  let refined =
    List.for_all
      (fun (e : Sekvm.Kernel_progs.entry) ->
        (Vrm.Certificate.audit_program e).Vrm.Certificate.as_expected)
      (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus)
  in
  expect
    "Theorems 1/2: wDRF corpus refines (RM ⊆ SC); seeded bugs produce RM \
     witnesses"
    refined;
  (* Theorem 4: Example 7's kernel behaviors covered by synthesized Q' *)
  let v =
    Vrm.Theorem4.check
      ~config:{ Memmodel.Promising.default_config with max_promises = 1;
                loop_fuel = 4 }
      { Vrm.Theorem4.kernel_tids = [ 3 ]; user_tids = [ 1; 2 ] }
      Memmodel.Paper_examples.example7.Memmodel.Litmus.prog
  in
  Format.printf "  %a@." Vrm.Theorem4.pp_verdict v;
  expect "Theorem 4: user programs replaceable by SC oracles"
    v.Vrm.Theorem4.holds;
  (* model validation: Promising vs axiomatic on the straight-line corpus *)
  let agree =
    List.for_all
      (fun (t : Memmodel.Litmus.t) ->
        let ax = Memmodel.Axiomatic.run t.Memmodel.Litmus.prog in
        let pr =
          Vrm.Refinement.normals
            (Memmodel.Promising.run
               ~config:{ Memmodel.Promising.default_config with
                         max_promises = 2; cert_depth = 40 }
               t.Memmodel.Litmus.prog)
        in
        Memmodel.Behavior.equal ax pr)
      [ Memmodel.Paper_examples.example1; Memmodel.Paper_examples.mp_dmb;
        Memmodel.Paper_examples.sb; Memmodel.Litmus_suite.wrc_dmb;
        Memmodel.Litmus_suite.isa2; Memmodel.Litmus_suite.w22_plain ]
  in
  expect "Promising executor agrees with the Armv8 axiomatic model" agree;
  (* model hierarchy: SC ⊆ x86-TSO ⊆ Arm on the §2 examples *)
  let hierarchy =
    List.for_all
      (fun (t : Memmodel.Litmus.t) ->
        let p = t.Memmodel.Litmus.prog in
        let n b = Vrm.Refinement.normals b in
        let sc = n (Memmodel.Sc.run p) in
        let tso = n (Memmodel.Tso.run ~fuel:3 p) in
        let arm =
          n
            (Memmodel.Promising.run
               ?config:t.Memmodel.Litmus.rm_config p)
        in
        Memmodel.Behavior.subset sc tso
        && Memmodel.Behavior.subset tso arm)
      [ Memmodel.Paper_examples.example1; Memmodel.Paper_examples.sb;
        Memmodel.Paper_examples.mp_plain ]
  in
  expect "model hierarchy: SC ⊆ x86-TSO ⊆ Arm" hierarchy

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let print_ablations () =
  section "Ablations: TLB capacity, stage-2 depth, KServ huge pages";
  (* TLB sweep: where does the m400 "tiny TLB" effect disappear? *)
  let sweep = Perf.Micro.tlb_sweep () in
  Format.printf "hypercall SeKVM/KVM ratio vs TLB capacity (m400-class):@.";
  List.iter (fun (n, r) -> Format.printf "  %5d entries: %5.2fx@." n r) sweep;
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && mono rest
    | _ -> true
  in
  expect "overhead monotonically falls with TLB capacity" (mono sweep);
  (* stage-2 depth: 3-level cuts the nested-walk cost (§5.6) *)
  let ratio rows name hw =
    (List.find
       (fun (r : Perf.Micro.row) ->
         r.Perf.Micro.bench.Perf.Micro.name = name
         && r.Perf.Micro.hw_name = hw)
       rows)
      .Perf.Micro.overhead
  in
  let l4 = Lazy.force table3 and l3 = Perf.Micro.table3 ~stage2_levels:3 () in
  Format.printf "@.stage-2 depth (m400 hypercall): 4-level %.2fx, 3-level %.2fx@."
    (ratio l4 "Hypercall" "m400") (ratio l3 "Hypercall" "m400");
  expect "3-level stage-2 beats 4-level on the m400"
    (ratio l3 "Hypercall" "m400" < ratio l4 "Hypercall" "m400");
  (* KServ huge pages: the fix the Table 3 discussion points at *)
  let hp = Perf.Micro.table3 ~kserv_hugepages:true () in
  Format.printf "@.KServ stage-2 granule (m400): 4 KB pages vs 2 MB blocks@.";
  List.iter
    (fun b ->
      Format.printf "  %-12s %5.2fx -> %5.2fx@." b (ratio l4 b "m400")
        (ratio hp b "m400"))
    [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ];
  expect "huge KServ mappings remove the m400 TLB tax"
    (List.for_all
       (fun b -> ratio hp b "m400" < ratio l4 b "m400" -. 0.3)
       [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ]);
  (* the §6 remark about newer CPUs, as a configuration *)
  let nv b =
    (Perf.Micro.run_one Perf.Cost_model.neoverse_params ~stage2_levels:4 b)
      .Perf.Micro.overhead
  in
  Format.printf "@.modern (Neoverse-class) CPU: SeKVM/KVM ratios@.";
  List.iter
    (fun b -> Format.printf "  %-12s %5.2fx@." b.Perf.Micro.name (nv b))
    Perf.Micro.all;
  expect "a modern large-TLB CPU sits at the dispatch floor"
    (List.for_all (fun b -> nv b < 1.5) Perf.Micro.all)

(* ------------------------------------------------------------------ *)
(* Multi-VM stress: the executable Fig. 9 configuration                *)
(* ------------------------------------------------------------------ *)

let print_stress () =
  section "Multi-VM stress: live KCore under interleaved guest load";
  let s = Vrm.Scenario.stress_run ~n_vms:6 ~rounds:3 () in
  Format.printf
    "%d VMs x %d rounds: %d guest ops, %d stage-2 faults, %d hypercalls, \
     %d vIPIs@."
    s.Vrm.Scenario.st_vms s.Vrm.Scenario.st_rounds
    s.Vrm.Scenario.st_guest_ops s.Vrm.Scenario.st_s2_faults
    s.Vrm.Scenario.st_hypercalls s.Vrm.Scenario.st_vipis;
  expect "invariants held through every round and teardown"
    (s.Vrm.Scenario.st_invariant_checks = 3);
  (* the Fig. 9 configuration: 32 concurrent VMs on a larger box *)
  let big =
    { Sekvm.Kcore.default_boot_config with
      Sekvm.Kcore.n_pages = 3072;
      s2_pool_pages = 512;
      n_cpus = 8 }
  in
  let s32 = Vrm.Scenario.stress_run ~config:big ~n_vms:32 ~rounds:2 () in
  Format.printf "32 VMs: %d guest ops, %d faults, %d hypercalls@."
    s32.Vrm.Scenario.st_guest_ops s32.Vrm.Scenario.st_s2_faults
    s32.Vrm.Scenario.st_hypercalls;
  expect "32 concurrent VMs (the Fig. 9 maximum) stay invariant-clean"
    (s32.Vrm.Scenario.st_vms = 32)

(* ------------------------------------------------------------------ *)
(* Static wDRF lint vs exhaustive refinement check                     *)
(* ------------------------------------------------------------------ *)

let print_lint () =
  section "Static wDRF lint vs exhaustive refinement check";
  let entries =
    Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
    @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        let a, ta = time (fun () -> Analysis.Driver.analyze e) in
        let v, tv =
          time (fun () ->
              Vrm.Refinement.check ~config:e.Sekvm.Kernel_progs.rm_config
                e.Sekvm.Kernel_progs.prog)
        in
        let served =
          a.Analysis.Driver.a_overall = Analysis.Diag.Pass
          && a.Analysis.Driver.a_refinement = Analysis.Diag.Pass
        in
        Format.printf "  %-22s lint %8.3f ms   explore %9.3f ms   %s@."
          e.Sekvm.Kernel_progs.name (ta *. 1e3) (tv *. 1e3)
          (if served then "static-served" else "dynamic");
        (a, v, served, ta, tv))
      entries
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let tl = total (fun (_, _, _, ta, _) -> ta) in
  let te = total (fun (_, _, _, _, tv) -> tv) in
  let served = List.length (List.filter (fun (_, _, s, _, _) -> s) rows) in
  Format.printf "  %-22s lint %8.3f ms   explore %9.3f ms   (%d/%d static)@."
    "TOTAL" (tl *. 1e3) (te *. 1e3) served (List.length rows);
  expect "lint is cheaper than exhaustive exploration over the corpus"
    (tl < te);
  expect "static refinement Pass implies exploration succeeds (soundness)"
    (List.for_all
       (fun ((a : Analysis.Driver.t), (v : Vrm.Refinement.verdict), _, _, _) ->
         match a.Analysis.Driver.a_refinement with
         | Analysis.Diag.Pass -> v.Vrm.Refinement.holds
         | Analysis.Diag.Fail | Analysis.Diag.Unknown -> true)
       rows);
  expect "some corpus entries are static-served" (served > 0)

(* ------------------------------------------------------------------ *)
(* Analyzer engines: bounded path enumeration vs dataflow fixpoint     *)
(* ------------------------------------------------------------------ *)

(* A family of b independent branch diamonds: the bounded engine
   enumerates 2^b paths, the fixpoint engine visits O(b) CFG nodes. *)
let branchy b =
  let open Memmodel in
  let code =
    List.concat
      (List.init b (fun k ->
           let rk = Reg.v (Printf.sprintf "r%d" k) in
           let base = Printf.sprintf "el2_m%d" k in
           [ Instr.load rk (Expr.at "data");
             Instr.if_
               (Expr.Cmp (Expr.Eq, Expr.r rk, Expr.c 0))
               [ Instr.store (Expr.at ~offset:(Expr.c 0) base) (Expr.c 1) ]
               [ Instr.store (Expr.at ~offset:(Expr.c 0) base) (Expr.c 2) ] ]))
  in
  Prog.make
    ~name:(Printf.sprintf "branchy-%d" b)
    ~observables:[]
    [ Prog.thread 1 code; Prog.thread 2 [ Instr.Nop ] ]

let print_absint () =
  section "Analyzer throughput: bounded path enumeration vs fixpoint";
  let time_n n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let sizes = [ 4; 6; 8; 10; 12 ] in
  let rows =
    List.map
      (fun b ->
        let prog = branchy b in
        let name = Printf.sprintf "branchy-%d" b in
        let run engine () =
          Analysis.Driver.analyze_prog ~engine ~name prog
        in
        let tf = time_n 20 (run Analysis.Driver.Fixpoint) in
        let tb =
          time_n (if b <= 8 then 5 else 1) (run Analysis.Driver.Bounded)
        in
        Format.printf
          "  %-12s bounded %9.3f ms (%8.1f prog/s)   fixpoint %7.3f ms \
           (%8.1f prog/s)   speedup %7.1fx@."
          name (tb *. 1e3) (1. /. tb) (tf *. 1e3) (1. /. tf) (tb /. tf);
        (b, tb, tf))
      sizes
  in
  let assoc b = List.find (fun (b', _, _) -> b' = b) rows in
  let _, tb_lo, tf_lo = assoc 4 and _, tb_hi, tf_hi = assoc 12 in
  expect "fixpoint is at least 10x faster than bounded at the top size"
    (tb_hi /. tf_hi >= 10.);
  expect "bounded time grows super-linearly in the diamond count"
    (tb_hi /. tb_lo > 50.);
  expect "fixpoint time stays near-linear in the diamond count"
    (tf_hi /. tf_lo < 30.);
  (* engine agreement across all four corpora, modulo the pinned
     bounded blind spots *)
  let entries =
    Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
    @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus
  in
  let divergent =
    List.concat_map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        let fx =
          Analysis.Driver.analyze ~engine:Analysis.Driver.Fixpoint e
        in
        let bd = Analysis.Driver.analyze ~engine:Analysis.Driver.Bounded e in
        let pinned =
          Option.value ~default:[]
            (List.assoc_opt e.Sekvm.Kernel_progs.name
               Sekvm.Kernel_progs.lint_divergences)
        in
        List.filter_map
          (fun (p : Analysis.Driver.pass) ->
            let vb =
              Analysis.Driver.pass_verdict bd p.Analysis.Driver.p_name
            in
            if
              vb <> p.Analysis.Driver.p_verdict
              && not (List.mem p.Analysis.Driver.p_name pinned)
            then
              Some
                (e.Sekvm.Kernel_progs.name ^ "/" ^ p.Analysis.Driver.p_name)
            else None)
          fx.Analysis.Driver.a_passes)
      entries
  in
  List.iter (Format.printf "  UNPINNED divergence: %s@.") divergent;
  expect "zero unpinned engine divergences across all four corpora"
    (divergent = [])

(* ------------------------------------------------------------------ *)
(* §5: the certification summary                                       *)
(* ------------------------------------------------------------------ *)

let print_certification () =
  section "Section 5: wDRF certification of SeKVM (one version per geometry)";
  let versions =
    [ { Sekvm.Kernel_progs.linux = "4.18"; stage2_levels = 4 };
      { Sekvm.Kernel_progs.linux = "4.18"; stage2_levels = 3 } ]
  in
  List.iter
    (fun v ->
      let r = Vrm.Certificate.certify v in
      expect
        (Printf.sprintf "wDRF certificate holds for Linux %s (%d-level)"
           v.Sekvm.Kernel_progs.linux v.Sekvm.Kernel_progs.stage2_levels)
        r.Vrm.Certificate.certified)
    versions

(* ------------------------------------------------------------------ *)
(* Bechamel: time the artifact generators                              *)
(* ------------------------------------------------------------------ *)

let bench_tests =
  [ Test.make ~name:"examples-sc-vs-rm (example1 litmus)"
      (Staged.stage (fun () ->
           Memmodel.Litmus.run Memmodel.Paper_examples.example1));
    Test.make ~name:"wdrf-certificate (gen_vmid program audit)"
      (Staged.stage (fun () ->
           Vrm.Certificate.audit_program Sekvm.Kernel_progs.vmid_alloc));
    Test.make ~name:"table3-microbench"
      (Staged.stage (fun () -> Perf.Micro.table3 ()));
    Test.make ~name:"fig8-apps"
      (Staged.stage (fun () -> Perf.App_sim.figure8 ()));
    Test.make ~name:"fig9-multivm"
      (Staged.stage (fun () -> Perf.Multi_vm.figure9 ()));
    Test.make ~name:"table1-loc"
      (Staged.stage (fun () -> ignore (count_loc "lib/core")));
    Test.make ~name:"ablation-tlb-sweep"
      (Staged.stage (fun () -> Perf.Micro.tlb_sweep ()));
    Test.make ~name:"ablation-kserv-hugepages"
      (Staged.stage (fun () -> Perf.Micro.table3 ~kserv_hugepages:true ()));
    Test.make ~name:"axiomatic-model (mp litmus)"
      (Staged.stage (fun () ->
           Memmodel.Axiomatic.run
             Memmodel.Paper_examples.mp_plain.Memmodel.Litmus.prog));
    Test.make ~name:"barrier-synthesis (example 3 repair)"
      (Staged.stage (fun () ->
           Vrm.Synthesis.repair
             ~config:
               { Memmodel.Promising.default_config with max_promises = 1;
                 loop_fuel = 4 }
             Memmodel.Paper_examples.example3_buggy.Memmodel.Litmus.prog));
    Test.make ~name:"substrate: stage-2 map+unmap"
      (let kcore = Sekvm.Kcore.boot Sekvm.Kcore.default_boot_config in
       let vmid = Sekvm.Kcore.register_vm kcore ~cpu:0 in
       let npt = (Sekvm.Kcore.find_vm kcore vmid).Sekvm.Kcore.npt in
       let i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           let ipa = Machine.Page_table.page_va (16 + (!i mod 200)) in
           (match
              Sekvm.Npt.set_s2pt npt ~cpu:0 ~ipa ~pfn:500 ~perms:Machine.Pte.rw
            with
           | Ok () -> ()
           | Error `Already_mapped -> ());
           match Sekvm.Npt.clear_s2pt npt ~cpu:0 ~ipa with
           | Ok () -> ()
           | Error `Not_mapped -> ())) ]

let run_bechamel () =
  section "Bechamel: artifact generator timings";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "  %-45s %12.1f ns/run@." name est
          | Some _ | None -> Format.printf "  %-45s (no estimate)@." name)
        stats)
    bench_tests

(* ------------------------------------------------------------------ *)

let () =
  print_examples ();
  print_table1 ();
  print_table3 ();
  print_fig8 ();
  print_fig9 ();
  print_theorems ();
  print_ablations ();
  print_stress ();
  print_lint ();
  print_absint ();
  print_certification ();
  run_bechamel ();
  section "Summary";
  Format.printf "all shape checks passed: %b@." !all_ok;
  if not !all_ok then exit 1
