(** The vrm command-line tool.

    - [vrm-cli litmus [NAME]] — run the litmus corpus (or one test) under
      SC and Promising Arm and print the outcome comparison;
    - [vrm-cli certify [--linux V] [--levels N]] — produce the wDRF
      certificate for one verified KVM version, or all of them;
    - [vrm-cli simulate (table3|fig8|fig9)] — regenerate an evaluation
      artifact from the performance model;
    - [vrm-cli scenario] — run the standard whole-system scenario and
      print the security report. *)

open Cmdliner

(* ------------------------------------------------------------------ *)

let litmus_cmd =
  let test_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"print per-test exploration statistics")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"explore with $(docv) parallel domains")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "print one compact JSON result object per line (the same \
             payload the verification service returns)")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "disable partial-order reduction on both sides (exact \
             search; identical behavior sets, more states visited)")
  in
  let no_sym =
    Arg.(
      value & flag
      & info [ "no-sym" ]
          ~doc:
            "disable thread-symmetry reduction on both sides (identical \
             behavior sets, thread-permuted states no longer collapsed)")
  in
  let no_cert_cache =
    Arg.(
      value & flag
      & info [ "no-cert-cache" ]
          ~doc:
            "disable certification memoization on the Promising side \
             (identical behavior sets, every promise re-certified from \
             scratch)")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("explicit", `Explicit); ("bmc", `Bmc); ("both", `Both) ])
          `Explicit
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "deciding engine: $(b,explicit) (the enumerating SC + \
             Promising executors), $(b,bmc) (the SAT-based bounded model \
             checker), or $(b,both) (run both and fail loudly unless the \
             behavior-set digests agree)")
  in
  let suite =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:"also run the classic litmus suite, not just the §2 examples")
  in
  let run test_name stats jobs json no_por no_sym no_cert_cache backend
      suite =
    let corpus =
      Memmodel.Paper_examples.all
      @ (if suite then Memmodel.Litmus_suite.all else [])
    in
    let tests =
      match test_name with
      | None -> corpus
      | Some n ->
          List.filter
            (fun t -> t.Memmodel.Litmus.prog.Memmodel.Prog.name = n)
            corpus
    in
    if tests = [] then (
      Format.eprintf "unknown litmus test %a@."
        (Format.pp_print_option Format.pp_print_string)
        test_name;
      exit 1);
    match backend with
    | `Explicit ->
        let results =
          List.map
            (Memmodel.Litmus.run ~jobs ~por:(not no_por) ~sym:(not no_sym)
               ~cert_cache:(not no_cert_cache))
            tests
        in
        List.iter
          (fun (r : Memmodel.Litmus.result) ->
            if json then
              print_endline
                (Cache.Json.to_string
                   (Cache.Codec.litmus_to_json (Cache.Codec.litmus_summary r)))
            else begin
              Format.printf "%a@." Memmodel.Litmus.pp_result r;
              if stats then
                Format.printf "  SC : %a@.  RM : %a@."
                  Memmodel.Engine.pp_stats r.Memmodel.Litmus.sc_stats
                  Memmodel.Engine.pp_stats r.Memmodel.Litmus.rm_stats;
              Format.printf "@."
            end)
          results;
        if
          List.exists
            (fun (r : Memmodel.Litmus.result) ->
              not r.Memmodel.Litmus.as_expected)
            results
        then exit 1
    | `Bmc ->
        (* Decide each test by SAT alone. The Arm set is the axiomatic
           model's (an over-approximation of Promising), so the
           exists-clause verdict is checked against [expect_rm]. *)
        let failed = ref false in
        List.iter
          (fun (t : Memmodel.Litmus.t) ->
            match Bmc.check ~mode:Bmc.Arm t.Memmodel.Litmus.prog with
            | rm ->
                let sc = Bmc.check ~mode:Bmc.Sc t.Memmodel.Litmus.prog in
                let s = Cache.Codec.bmc_summary t ~rm ~sc in
                if json then
                  print_endline
                    (Cache.Json.to_string (Cache.Codec.bmc_to_json s))
                else begin
                  let ok = s.Cache.Codec.b_rm_sat = t.Memmodel.Litmus.expect_rm in
                  if not ok then failed := true;
                  Format.printf "%-26s sc=%d rm=%d %s%s %s@."
                    s.Cache.Codec.b_name
                    (Memmodel.Behavior.cardinal s.Cache.Codec.b_sc)
                    (Memmodel.Behavior.cardinal s.Cache.Codec.b_rm)
                    (if s.Cache.Codec.b_rm_sat then "reachable"
                     else "unreachable")
                    (if s.Cache.Codec.b_rm_complete then ""
                     else " (bound-limited)")
                    (if ok then "ok" else "UNEXPECTED");
                  if stats then
                    Format.printf
                      "  %d models, %d vars, %d clauses, %d conflicts, \
                       %.3fs@."
                      s.Cache.Codec.b_models s.Cache.Codec.b_vars
                      s.Cache.Codec.b_clauses s.Cache.Codec.b_conflicts
                      s.Cache.Codec.b_wall_s
                end
            | exception Bmc.Unsupported why ->
                Format.printf "%-26s outside the BMC fragment (%s)@."
                  t.Memmodel.Litmus.prog.Memmodel.Prog.name why)
          tests;
        if !failed then exit 1
    | `Both ->
        (* Cross-validation: the SAT backend must land on bit-identical
           behavior sets to the explicit engines deciding the same
           models — Bmc(Sc) vs the SC enumerator, Bmc(Arm) vs the
           enumerating axiomatic checker. Any divergence is a bug in one
           of the two pipelines and fails the run. *)
        let diverged = ref false in
        List.iter
          (fun (t : Memmodel.Litmus.t) ->
            let prog = t.Memmodel.Litmus.prog in
            match Bmc.check ~mode:Bmc.Arm prog with
            | rm ->
                let sc = Bmc.check ~mode:Bmc.Sc prog in
                let d = Memmodel.Fingerprint.behaviors in
                let sc_ref = d (Memmodel.Sc.run prog) in
                let rm_ref = d (Memmodel.Axiomatic.run prog) in
                let sc_bmc = d sc.Bmc.behaviors in
                let rm_bmc = d rm.Bmc.behaviors in
                let ok = sc_ref = sc_bmc && rm_ref = rm_bmc in
                if not ok then diverged := true;
                Format.printf "%-26s sc=%d rm=%d %s@." prog.Memmodel.Prog.name
                  (Memmodel.Behavior.cardinal sc.Bmc.behaviors)
                  (Memmodel.Behavior.cardinal rm.Bmc.behaviors)
                  (if ok then "AGREE" else "DIGESTS DIVERGE");
                if not ok then begin
                  if sc_ref <> sc_bmc then
                    Format.printf
                      "  *** SC: explicit %s vs bmc %s ***@." sc_ref sc_bmc;
                  if rm_ref <> rm_bmc then
                    Format.printf
                      "  *** Arm: explicit %s vs bmc %s ***@." rm_ref rm_bmc
                end
            | exception Bmc.Unsupported why ->
                Format.printf
                  "%-26s outside the BMC fragment (%s); explicit only@."
                  prog.Memmodel.Prog.name why)
          tests;
        if !diverged then begin
          Format.printf
            "@.*** BACKEND DIVERGENCE: the SAT backend and the explicit \
             engines disagree on at least one behavior set ***@.";
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"run the paper's litmus tests under SC and RM")
    Term.(
      const run $ test_name $ stats $ jobs $ json $ no_por $ no_sym
      $ no_cert_cache $ backend $ suite)

(* ------------------------------------------------------------------ *)

let certify_cmd =
  let linux =
    Arg.(value & opt (some string) None & info [ "linux" ] ~docv:"VERSION")
  in
  let levels =
    Arg.(value & opt int 4 & info [ "levels" ] ~docv:"N")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ]) in
  let run linux levels verbose =
    let versions =
      match linux with
      | None -> Sekvm.Kernel_progs.versions
      | Some l -> [ { Sekvm.Kernel_progs.linux = l; stage2_levels = levels } ]
    in
    let ok = ref true in
    List.iter
      (fun v ->
        let r = Vrm.Certificate.certify v in
        if verbose then Format.printf "%a@.@." Vrm.Certificate.pp_report r
        else
          Format.printf "Linux %-6s %d-level stage-2: %s@."
            v.Sekvm.Kernel_progs.linux v.Sekvm.Kernel_progs.stage2_levels
            (if r.Vrm.Certificate.certified then "CERTIFIED" else "FAILED");
        if not r.Vrm.Certificate.certified then ok := false)
      versions;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "certify" ~doc:"produce the wDRF certificate for KVM versions")
    Term.(const run $ linux $ levels $ verbose)

(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let what =
    Arg.(
      required
      & pos 0 (some (enum [ ("table3", `T3); ("fig8", `F8); ("fig9", `F9) ]))
          None
      & info [] ~docv:"ARTIFACT")
  in
  let run what =
    match what with
    | `T3 ->
        Format.printf "%-12s %-8s %8s %8s %7s %7s@." "bench" "hw" "KVM"
          "SeKVM" "ratio" "paper";
        List.iter
          (fun (r : Perf.Micro.row) ->
            Format.printf "%-12s %-8s %8d %8d %7.2f %7.2f@."
              r.Perf.Micro.bench.Perf.Micro.name r.Perf.Micro.hw_name
              r.Perf.Micro.kvm_cycles r.Perf.Micro.sekvm_cycles
              r.Perf.Micro.overhead
              (Option.value ~default:0.0
                 (Perf.Micro.paper_overhead r.Perf.Micro.bench.Perf.Micro.name
                    r.Perf.Micro.hw_name)))
          (Perf.Micro.table3 ())
    | `F8 ->
        let pts = Perf.App_sim.figure8 () in
        Format.printf "%-10s %-8s %-5s %-6s %10s@." "workload" "hw" "linux"
          "hyp" "norm-perf";
        List.iter
          (fun (p : Perf.App_sim.point) ->
            Format.printf "%-10s %-8s %-5s %-6s %10.3f@."
              p.Perf.App_sim.workload.Perf.Workload.name p.Perf.App_sim.hw_name
              (Perf.App_sim.version_name p.Perf.App_sim.version)
              (match p.Perf.App_sim.hypervisor with
              | Perf.Cost_model.Kvm -> "kvm"
              | Perf.Cost_model.Sekvm -> "sekvm")
              p.Perf.App_sim.normalized_perf)
          pts
    | `F9 ->
        let pts = Perf.Multi_vm.figure9 () in
        Format.printf "%-10s %-6s %4s %10s@." "workload" "hyp" "VMs"
          "norm-perf";
        List.iter
          (fun (p : Perf.Multi_vm.point) ->
            Format.printf "%-10s %-6s %4d %10.3f@."
              p.Perf.Multi_vm.workload.Perf.Workload.name
              (match p.Perf.Multi_vm.hypervisor with
              | Perf.Cost_model.Kvm -> "kvm"
              | Perf.Cost_model.Sekvm -> "sekvm")
              p.Perf.Multi_vm.n_vms p.Perf.Multi_vm.normalized_perf)
          pts
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"regenerate an evaluation table/figure")
    Term.(const run $ what)

(* ------------------------------------------------------------------ *)

let scenario_cmd =
  let run () =
    let out = Vrm.Scenario.standard_run () in
    Format.printf "VMs booted: %s@."
      (String.concat ", " (List.map string_of_int out.Vrm.Scenario.vmids));
    Format.printf "guest work checksum: %d@." out.Vrm.Scenario.guest_sum;
    List.iter
      (fun (name, denied) ->
        Format.printf "attack %-24s %s@." name
          (if denied then "DENIED" else "SUCCEEDED (BAD)"))
      out.Vrm.Scenario.attack_results;
    let bad = Sekvm.Kcore.check_invariants out.Vrm.Scenario.kcore in
    Format.printf "invariant violations: %d@." (List.length bad);
    if
      List.exists (fun (_, d) -> not d) out.Vrm.Scenario.attack_results
      || bad <> []
    then exit 1
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"run the standard whole-system scenario")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let stress_cmd =
  let n_vms = Arg.(value & opt int 6 & info [ "vms" ] ~docv:"N") in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N") in
  let run n_vms rounds =
    let s = Vrm.Scenario.stress_run ~n_vms ~rounds () in
    Format.printf
      "%d VMs x %d rounds: %d guest ops, %d stage-2 faults, %d hypercalls, \
       %d vIPIs; invariants held at every checkpoint@."
      s.Vrm.Scenario.st_vms s.Vrm.Scenario.st_rounds
      s.Vrm.Scenario.st_guest_ops s.Vrm.Scenario.st_s2_faults
      s.Vrm.Scenario.st_hypercalls s.Vrm.Scenario.st_vipis
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"run many VMs concurrently with invariants checked every round")
    Term.(const run $ n_vms $ rounds)

let sweep_cmd =
  let run () =
    Format.printf "SeKVM/KVM hypercall ratio vs TLB capacity (m400-class):@.";
    List.iter
      (fun (n, r) -> Format.printf "  %5d entries: %5.2fx@." n r)
      (Perf.Micro.tlb_sweep ());
    Format.printf "@.with 2MB KServ stage-2 blocks (ablation):@.";
    List.iter
      (fun (r : Perf.Micro.row) ->
        if r.Perf.Micro.hw_name = "m400" then
          Format.printf "  %-12s %5.2fx@." r.Perf.Micro.bench.Perf.Micro.name
            r.Perf.Micro.overhead)
      (Perf.Micro.table3 ~kserv_hugepages:true ())
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"TLB-capacity and huge-page ablations")
    Term.(const run $ const ())

let migrate_cmd =
  let run () =
    let cfg = Sekvm.Kcore.default_boot_config in
    let src = Sekvm.Kcore.boot cfg in
    let src_kserv = Sekvm.Kserv.create src ~first_free_pfn:(Sekvm.Kcore.kserv_base cfg) in
    match Sekvm.Kserv.boot_vm src_kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Error _ -> Format.printf "boot failed@."; exit 1
    | Ok vmid ->
        ignore
          (Sekvm.Kserv.run_guest src_kserv ~cpu:1 ~vmid ~vcpuid:0
             [ Sekvm.Vm.G_write (Machine.Page_table.page_va 50, 777) ]);
        let pages = Sekvm.Kcore.export_vm src ~cpu:0 ~vmid in
        let dst = Sekvm.Kcore.boot cfg in
        let dst_kserv =
          Sekvm.Kserv.create dst ~first_free_pfn:(Sekvm.Kcore.kserv_base cfg)
        in
        let new_vmid =
          Sekvm.Kcore.import_vm dst ~cpu:0 ~pages
            ~donate:(fun () -> Sekvm.Kserv.alloc_page dst_kserv)
            ~n_vcpus:1
        in
        (match
           Sekvm.Kserv.run_guest dst_kserv ~cpu:1 ~vmid:new_vmid ~vcpuid:0
             [ Sekvm.Vm.G_read (Machine.Page_table.page_va 50) ]
         with
        | [ Sekvm.Vm.R_value 777 ] ->
            Format.printf
              "migrated VM %d -> VM %d: guest state intact; invariants: \
               src %d, dst %d violations@."
              vmid new_vmid
              (List.length (Sekvm.Kcore.check_invariants src))
              (List.length (Sekvm.Kcore.check_invariants dst))
        | _ ->
            Format.printf "migration corrupted guest state@.";
            exit 1)
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"export a VM from one host and import on another")
    Term.(const run $ const ())

let axiomatic_cmd =
  let test_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let run test_name =
    let corpus = Memmodel.Paper_examples.all @ Memmodel.Litmus_suite.all in
    let tests =
      match test_name with
      | None -> corpus
      | Some n ->
          List.filter
            (fun t -> t.Memmodel.Litmus.prog.Memmodel.Prog.name = n)
            corpus
    in
    let cfg =
      { Memmodel.Promising.default_config with max_promises = 2;
        cert_depth = 40 }
    in
    List.iter
      (fun (t : Memmodel.Litmus.t) ->
        match Memmodel.Axiomatic.run t.Memmodel.Litmus.prog with
        | ax ->
            let pr =
              Vrm.Refinement.normals
                (Memmodel.Promising.run ~config:cfg t.Memmodel.Litmus.prog)
            in
            Format.printf "%-26s axiomatic=%d promising=%d  %s@."
              t.Memmodel.Litmus.prog.Memmodel.Prog.name
              (Memmodel.Behavior.cardinal ax)
              (Memmodel.Behavior.cardinal pr)
              (if Memmodel.Behavior.equal ax pr then "AGREE"
               else if Memmodel.Behavior.subset pr ax then
                 "promising under-approximates (bounded promises/RMWs)"
               else "DISAGREE")
        | exception Memmodel.Axiomatic.Unsupported why ->
            Format.printf "%-26s outside the axiomatic fragment (%s)@."
              t.Memmodel.Litmus.prog.Memmodel.Prog.name why)
      tests
  in
  Cmd.v
    (Cmd.info "axiomatic"
       ~doc:"compare the Promising executor against the Armv8 axiomatic model")
    Term.(const run $ test_name)

let repair_cmd =
  let test_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let run test_name =
    let corpus =
      List.map
        (fun (t : Memmodel.Litmus.t) -> (t.Memmodel.Litmus.prog, t.Memmodel.Litmus.rm_config))
        (Memmodel.Paper_examples.all @ Memmodel.Litmus_suite.all)
      @ List.map
          (fun (e : Sekvm.Kernel_progs.entry) ->
            (e.Sekvm.Kernel_progs.prog, Some e.Sekvm.Kernel_progs.rm_config))
          (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus)
    in
    match
      List.find_opt
        (fun (p, _) -> p.Memmodel.Prog.name = test_name)
        corpus
    with
    | None ->
        Format.eprintf "unknown program %s@." test_name;
        exit 1
    | Some (prog, config) ->
        let r = Vrm.Synthesis.repair ?config prog in
        Format.printf "%a@." Vrm.Synthesis.pp_result r;
        if r.Vrm.Synthesis.repaired = None
           && not r.Vrm.Synthesis.original.Vrm.Refinement.holds
        then exit 1
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"synthesize minimal acquire/release upgrades for a racy program")
    Term.(const run $ test_name)

(* ------------------------------------------------------------------ *)
(* vrmd: the verification service                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/vrmd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"daemon socket path")

(* A client command against a daemon that is not there should be a clean
   diagnostic, not a backtrace. *)
let with_daemon socket f =
  try f () with
  | Unix.Unix_error (e, _, _) ->
      Format.eprintf "cannot reach vrmd at %s: %s@." socket
        (Unix.error_message e);
      exit 1
  | Failure msg ->
      Format.eprintf "vrmd at %s: %s@." socket msg;
      exit 1

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"worker domains (0 = one per available core)")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"persist verification results under $(docv)")
  in
  let journal_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "journal queued jobs to $(docv) and replay the pending set \
             on startup, so a corpus-wide submission survives a restart")
  in
  let no_hot =
    Arg.(
      value & flag
      & info [ "no-hot" ]
          ~doc:
            "disable the sharded in-memory hot tier (every cache lookup \
             goes to disk; results are identical)")
  in
  let hot_capacity =
    Arg.(
      value & opt int 1024
      & info [ "hot-capacity" ] ~docv:"N"
          ~doc:"hot-tier capacity in entries, LRU-evicted per shard")
  in
  let hot_shards =
    Arg.(
      value & opt int 16
      & info [ "hot-shards" ] ~docv:"N"
          ~doc:"hot-tier shard count (rounded up to a power of two)")
  in
  let interactive_depth =
    Arg.(
      value & opt int 64
      & info [ "interactive-depth" ] ~docv:"N"
          ~doc:
            "interactive lane queue bound; submissions beyond it are \
             shed with a retry-after hint")
  in
  let bulk_depth =
    Arg.(
      value & opt int 256
      & info [ "bulk-depth" ] ~docv:"N" ~doc:"bulk lane queue bound")
  in
  let run socket workers cache_dir journal_path no_hot hot_capacity
      hot_shards interactive_depth bulk_depth =
    let log msg = Format.eprintf "%s@." msg in
    let cache =
      Cache.Store.create ?dir:cache_dir
        ~engine_version:Memmodel.Engine.version ()
    in
    let workers = if workers <= 0 then None else Some workers in
    let journal, pending =
      match journal_path with
      | None -> (None, [])
      | Some p ->
          let j, pending = Service.Journal.open_ p in
          (Some j, pending)
    in
    let sched =
      Service.Scheduler.create ?workers ~cache ~hot:(not no_hot)
        ~hot_shards ~hot_capacity ~interactive_depth ~bulk_depth ?journal ()
    in
    (match pending with
    | [] -> ()
    | _ ->
        let n = Service.Scheduler.replay sched pending in
        log
          (Printf.sprintf "vrmd: replayed %d/%d journaled job(s)" n
             (List.length pending)));
    Fun.protect
      ~finally:(fun () -> Option.iter Service.Journal.close journal)
      (fun () -> Service.Server.serve ~socket ~log sched)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run the vrmd verification daemon on a Unix socket")
    Term.(
      const run $ socket_arg $ workers $ cache_dir $ journal_path $ no_hot
      $ hot_capacity $ hot_shards $ interactive_depth $ bulk_depth)

(* Recompute a job's result directly (no service, no cache) and compare
   the content digests against the payload the daemon returned. *)
let verify_payload ~backend (job : Service.Protocol.job)
    (data : Cache.Json.t) : (unit, string) result =
  let beh = Memmodel.Fingerprint.behaviors in
  match Service.Scheduler.lookup_job job with
  | Error e -> Error e
  | Ok (Service.Scheduler.Litmus_spec t) when backend = Service.Protocol.Bmc
    ->
      let remote = Cache.Codec.bmc_of_json data in
      let rm = Bmc.check ~mode:Bmc.Arm t.Memmodel.Litmus.prog in
      let sc = Bmc.check ~mode:Bmc.Sc t.Memmodel.Litmus.prog in
      let local = Cache.Codec.bmc_summary t ~rm ~sc in
      if
        local.Cache.Codec.b_prog_digest = remote.Cache.Codec.b_prog_digest
        && beh local.Cache.Codec.b_rm = beh remote.Cache.Codec.b_rm
        && beh local.Cache.Codec.b_sc = beh remote.Cache.Codec.b_sc
        && local.Cache.Codec.b_rm_sat = remote.Cache.Codec.b_rm_sat
      then Ok ()
      else Error "bmc payload disagrees with direct run"
  | Ok (Service.Scheduler.Litmus_spec t) ->
      let remote = Cache.Codec.litmus_of_json data in
      let local = Cache.Codec.litmus_summary (Memmodel.Litmus.run t) in
      if
        local.Cache.Codec.l_prog_digest = remote.Cache.Codec.l_prog_digest
        && beh local.Cache.Codec.l_sc = beh remote.Cache.Codec.l_sc
        && beh local.Cache.Codec.l_rm = beh remote.Cache.Codec.l_rm
        && beh local.Cache.Codec.l_rm_only = beh remote.Cache.Codec.l_rm_only
        && local.Cache.Codec.l_as_expected = remote.Cache.Codec.l_as_expected
      then Ok ()
      else Error "litmus payload disagrees with direct run"
  | Ok (Service.Scheduler.Refine_spec e)
    when Cache.Codec.refine_served_by_static data ->
      (* A statically served payload carries no behavior sets; verifying
         it means re-running the analyzer and checking it still fully
         discharges the entry. *)
      let remote = Cache.Codec.refine_of_json data in
      let a = Analysis.Driver.analyze e in
      if
        a.Analysis.Driver.a_prog_digest = remote.Cache.Codec.r_prog_digest
        && a.Analysis.Driver.a_overall = Analysis.Diag.Pass
        && a.Analysis.Driver.a_refinement = Analysis.Diag.Pass
        && remote.Cache.Codec.r_holds
      then Ok ()
      else Error "static payload disagrees with a fresh lint run"
  | Ok (Service.Scheduler.Refine_spec e) ->
      let remote = Cache.Codec.refine_of_json data in
      let v =
        Vrm.Refinement.check ~config:e.Sekvm.Kernel_progs.rm_config
          e.Sekvm.Kernel_progs.prog
      in
      let local =
        Cache.Codec.refine_summary ~name:e.Sekvm.Kernel_progs.name
          e.Sekvm.Kernel_progs.prog v
      in
      if
        local.Cache.Codec.r_prog_digest = remote.Cache.Codec.r_prog_digest
        && beh local.Cache.Codec.r_sc = beh remote.Cache.Codec.r_sc
        && beh local.Cache.Codec.r_rm = beh remote.Cache.Codec.r_rm
        && beh local.Cache.Codec.r_rm_only = beh remote.Cache.Codec.r_rm_only
        && local.Cache.Codec.r_holds = remote.Cache.Codec.r_holds
      then Ok ()
      else Error "refinement payload disagrees with direct run"
  | Ok (Service.Scheduler.Certify_spec v) ->
      let local =
        Cache.Codec.certificate_to_json
          (Vrm.Certificate.summarize (Vrm.Certificate.certify v))
      in
      if Cache.Json.to_string local = Cache.Json.to_string data then Ok ()
      else Error "certificate payload disagrees with direct run"

let submit_cmd =
  let kind =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("litmus", `Litmus); ("refine", `Refine);
                  ("certify", `Certify); ("corpus", `Corpus) ]))
          None
      & info [] ~docv:"KIND"
          ~doc:"litmus NAME | refine NAME | certify | corpus")
  in
  let name_arg = Arg.(value & pos 1 (some string) None & info [] ~docv:"NAME") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"exploration domains per job")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"per-job deadline")
  in
  let linux =
    Arg.(value & opt string "5.5" & info [ "linux" ] ~docv:"VERSION")
  in
  let levels = Arg.(value & opt int 4 & info [ "levels" ] ~docv:"N") in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "recompute each result locally and fail unless the daemon's \
             payload matches digest-for-digest")
  in
  let no_cert_cache =
    Arg.(
      value & flag
      & info [ "no-cert-cache" ]
          ~doc:
            "ask the daemon to run with certification memoization \
             disabled (part of its result-cache key)")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "ask the daemon to explore without partial-order reduction \
             (identical behavior sets; part of its result-cache key)")
  in
  let no_sym =
    Arg.(
      value & flag
      & info [ "no-sym" ]
          ~doc:
            "ask the daemon to explore without thread-symmetry reduction \
             (identical behavior sets; part of its result-cache key)")
  in
  let backend =
    Arg.(
      value
      & opt
          (enum
             [ ("explicit", Service.Protocol.Explicit);
               ("bmc", Service.Protocol.Bmc) ])
          Service.Protocol.Explicit
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "deciding engine for litmus jobs: $(b,explicit) or $(b,bmc) \
             (part of the daemon's result-cache key)")
  in
  let bulk =
    Arg.(
      value & flag
      & info [ "bulk" ]
          ~doc:
            "submit on the bulk lane: interactive submissions overtake \
             these, and a saturated bulk lane sheds new work with a \
             retry-after hint instead of queueing without bound")
  in
  let run socket kind name jobs deadline linux levels verify no_cert_cache
      no_por no_sym backend bulk =
    let lane =
      if bulk then Service.Protocol.Bulk else Service.Protocol.Interactive
    in
    let jobs_to_run =
      match (kind, name) with
      | `Litmus, Some n -> [ Service.Protocol.Litmus n ]
      | `Refine, Some n -> [ Service.Protocol.Refine n ]
      | (`Litmus | `Refine), None ->
          Format.eprintf "NAME is required for this kind@.";
          exit 2
      | `Certify, _ ->
          [ Service.Protocol.Certify { linux; stage2_levels = levels } ]
      | `Corpus, _ ->
          List.map
            (fun (t : Memmodel.Litmus.t) ->
              Service.Protocol.Litmus t.Memmodel.Litmus.prog.Memmodel.Prog.name)
            (Memmodel.Paper_examples.all @ Memmodel.Litmus_suite.all)
          @ List.map
              (fun (e : Sekvm.Kernel_progs.entry) ->
                Service.Protocol.Refine e.Sekvm.Kernel_progs.name)
              (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus)
    in
    let describe = function
      | Service.Protocol.Litmus n -> ("litmus", n)
      | Service.Protocol.Refine n -> ("refine", n)
      | Service.Protocol.Certify { linux; stage2_levels } ->
          ("certify", Printf.sprintf "%s/%d" linux stage2_levels)
    in
    let failed = ref false in
    List.iter
      (fun job ->
        let k, n = describe job in
        match
          with_daemon socket (fun () ->
              Service.Client.submit ~socket ~jobs ?deadline_s:deadline ~lane
                ~backend ~cert_cache:(not no_cert_cache) ~por:(not no_por)
                ~sym:(not no_sym) job)
        with
        | Error msg ->
            failed := true;
            Format.printf "%-8s %-26s ERROR %s@." k n msg
        | Ok payload -> (
            let data = Cache.Json.member "data" payload in
            let cached =
              try Cache.Json.to_bool (Cache.Json.member "from_cache" payload)
              with _ -> false
            in
            let wall =
              try Cache.Json.to_float (Cache.Json.member "wall_s" payload)
              with _ -> 0.
            in
            let verdict =
              if verify then
                match verify_payload ~backend job data with
                | Ok () -> " verified"
                | Error msg ->
                    failed := true;
                    " MISMATCH: " ^ msg
              else ""
            in
            Format.printf "%-8s %-26s ok%s (%.3fs)%s@." k n
              (if cached then " cached" else "")
              wall verdict))
      jobs_to_run;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"submit verification jobs to a running vrmd")
    Term.(
      const run $ socket_arg $ kind $ name_arg $ jobs $ deadline $ linux
      $ levels $ verify $ no_cert_cache $ no_por $ no_sym $ backend $ bulk)

let lint_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"kernel program to lint")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit one JSON payload per entry")
  in
  let corpus_flag =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:
            "lint every corpus entry (certified, buggy, boundary, lint) \
             and cross-validate each verdict against the dynamic checkers")
  in
  let engine_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("bounded", `Bounded); ("fixpoint", `Fixpoint);
               ("both", `Both) ])
          `Fixpoint
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "analysis engine: $(b,bounded) (exhaustive path enumeration, \
             loops unrolled 0/1), $(b,fixpoint) (abstract-interpretation \
             dataflow, the default), or $(b,both) (run both and report \
             any per-pass verdict divergence; unpinned divergences fail \
             the run)")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "print per-pass wall time, CFG size and dataflow solver \
             iteration counts")
  in
  let run name json corpus engine stats =
    let entries =
      Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
      @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus
    in
    let selected =
      if corpus then entries
      else
        match name with
        | None ->
            Format.eprintf "NAME or --corpus is required@.";
            exit 2
        | Some n -> (
            match
              List.find_opt
                (fun (e : Sekvm.Kernel_progs.entry) ->
                  e.Sekvm.Kernel_progs.name = n)
                entries
            with
            | Some e -> [ e ]
            | None ->
                Format.eprintf "unknown kernel program %S@." n;
                exit 2)
    in
    let failed = ref false in
    let definite = ref 0 in
    let pinned_div = ref 0 and unpinned_div = ref 0 in
    List.iter
      (fun (e : Sekvm.Kernel_progs.entry) ->
        let a =
          Analysis.Driver.analyze
            ~engine:
              (match engine with
              | `Bounded -> Analysis.Driver.Bounded
              | `Fixpoint | `Both -> Analysis.Driver.Fixpoint)
            e
        in
        definite := !definite + List.length (Analysis.Driver.definite_codes a);
        if json then
          print_endline (Cache.Json.to_string (Analysis.Driver.to_json a))
        else Format.printf "%a@." Analysis.Driver.pp a;
        if stats then Format.printf "%a@." Analysis.Driver.pp_stats a;
        (if engine = `Both then begin
           let b = Analysis.Driver.analyze ~engine:Analysis.Driver.Bounded e in
           if stats then Format.printf "%a@." Analysis.Driver.pp_stats b;
           let pinned =
             Option.value ~default:[]
               (List.assoc_opt e.Sekvm.Kernel_progs.name
                  Sekvm.Kernel_progs.lint_divergences)
           in
           List.iter
             (fun (p : Analysis.Driver.pass) ->
               let vb =
                 Analysis.Driver.pass_verdict b p.Analysis.Driver.p_name
               in
               if vb <> p.Analysis.Driver.p_verdict then
                 if List.mem p.Analysis.Driver.p_name pinned then begin
                   incr pinned_div;
                   Format.printf
                     "  divergence (pinned) %s/%s: bounded %s, fixpoint %s@."
                     e.Sekvm.Kernel_progs.name p.Analysis.Driver.p_name
                     (Analysis.Diag.verdict_name vb)
                     (Analysis.Diag.verdict_name p.Analysis.Driver.p_verdict)
                 end
                 else begin
                   incr unpinned_div;
                   failed := true;
                   Format.eprintf
                     "  DIVERGENCE %s/%s: bounded %s, fixpoint %s \
                      (not pinned in Kernel_progs.lint_divergences)@."
                     e.Sekvm.Kernel_progs.name p.Analysis.Driver.p_name
                     (Analysis.Diag.verdict_name vb)
                     (Analysis.Diag.verdict_name p.Analysis.Driver.p_verdict)
                 end)
             a.Analysis.Driver.a_passes
         end);
        let r = Analysis.Validate.entry e in
        if not (Analysis.Validate.ok r) then begin
          failed := true;
          Format.eprintf "%a@." Analysis.Validate.pp_report r
        end)
      selected;
    if not json then begin
      Format.printf "%d entries linted, %d definite finding(s), \
                     cross-validation %s@."
        (List.length selected) !definite
        (if !failed then "FAILED" else "ok");
      if engine = `Both then
        Format.printf "engine agreement: %d pinned divergence(s), %d \
                       unpinned@."
          !pinned_div !unpinned_div
    end;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the static wDRF analyzer (and its dynamic cross-validation) \
          over kernel programs")
    Term.(const run $ name_arg $ json $ corpus_flag $ engine_arg $ stats_flag)

let status_cmd =
  let run socket =
    match with_daemon socket (fun () -> Service.Client.status ~socket) with
    | Ok payload -> print_endline (Cache.Json.to_string payload)
    | Error msg ->
        Format.eprintf "status failed: %s@." msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "status" ~doc:"print a running vrmd's service counters")
    Term.(const run $ socket_arg)

let shutdown_cmd =
  let run socket =
    match with_daemon socket (fun () -> Service.Client.shutdown ~socket) with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "shutdown failed: %s@." msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"gracefully stop a running vrmd")
    Term.(const run $ socket_arg)

let cache_gc_cmd =
  let cache_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"the result-cache directory to sweep")
  in
  let max_entries =
    Arg.(
      value & opt int 4096
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "keep at most $(docv) entries, least-recently-used evicted \
             first (a served hit refreshes an entry's recency)")
  in
  let run cache_dir max_entries =
    if max_entries < 0 then begin
      Format.eprintf "--max-entries must be non-negative@.";
      exit 2
    end;
    let store =
      Cache.Store.create ~dir:cache_dir
        ~engine_version:Memmodel.Engine.version ()
    in
    let r = Cache.Store.gc store ~max_entries in
    Format.printf "%s: %d entr%s examined, %d deleted, %d kept@." cache_dir
      r.Cache.Store.examined
      (if r.Cache.Store.examined = 1 then "y" else "ies")
      r.Cache.Store.deleted r.Cache.Store.kept
  in
  Cmd.v
    (Cmd.info "cache-gc"
       ~doc:"evict least-recently-used entries from a result-cache directory")
    Term.(const run $ cache_dir $ max_entries)

let () =
  let doc = "VRM: verification of concurrent kernel code on Arm relaxed memory" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vrm-cli" ~doc)
          [ litmus_cmd; certify_cmd; simulate_cmd; scenario_cmd; stress_cmd;
            sweep_cmd; migrate_cmd; axiomatic_cmd; repair_cmd; lint_cmd;
            serve_cmd; submit_cmd; status_cmd; shutdown_cmd; cache_gc_cmd ]))
