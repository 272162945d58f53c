(* bmc-decide: one caller in a closed loop deciding every program of
   the BMC fragment: [Analysis.Driver.analyze_prog], then [Bmc.check]
   in Arm and in SC mode. SAT solving does the work; explicit
   exploration runs only in set-up, to compute the SC known answers. *)

open Memmodel
module K = Sekvm.Kernel_progs
module D = Analysis.Driver

type oracle =
  | Sc_set of Behavior.t  (** [Sc.run]: the SC-mode set must equal it *)
  | Pinned of Pins.bmc_pin  (** bound-limited: digests pinned *)

type input = { p : Gen.bmc_prog; oracle : oracle }

let setup ~seed : input array =
  Array.map
    (fun (p : Gen.bmc_prog) ->
      let oracle =
        match List.assoc_opt p.Gen.b_name Pins.bmc_bound_limited with
        | Some pin -> Pinned pin
        | None -> Sc_set (Sc.run p.Gen.b_prog)
      in
      { p; oracle })
    (Gen.bmc_programs ~seed)

let digest = Fingerprint.behaviors

let check (rep : Report.t) (x : input) (a : D.t) (arm : Bmc.result)
    (sc : Bmc.result) =
  let name = x.p.Gen.b_name in
  (match x.oracle with
  | Sc_set expected ->
      if not (arm.Bmc.complete && sc.Bmc.complete) then
        Report.wrong rep "%s: bound-limited, expected complete" name;
      if not (Behavior.equal expected sc.Bmc.behaviors) then
        Report.wrong rep "%s: SC-mode set differs from Sc.run" name
  | Pinned pin ->
      if arm.Bmc.complete || sc.Bmc.complete then
        Report.wrong rep "%s: expected bound-limited" name;
      if digest arm.Bmc.behaviors <> pin.Pins.arm_digest then
        Report.wrong rep "%s: Arm set differs from the pinned digest" name;
      if digest sc.Bmc.behaviors <> pin.Pins.sc_digest then
        Report.wrong rep "%s: SC set differs from the pinned digest" name);
  (match x.p.Gen.b_kind with
  | Gen.Litmus_test t ->
      let sat b = Behavior.satisfiable t.Litmus.exists b in
      if sat sc.Bmc.behaviors <> t.Litmus.expect_sc then
        Report.wrong rep "%s: SC exists verdict" name;
      if sat arm.Bmc.behaviors <> t.Litmus.expect_rm then
        Report.wrong rep "%s: Arm exists verdict" name
  | Gen.Writer_fan _ ->
      if
        Behavior.cardinal arm.Bmc.behaviors <> 3
        || Behavior.cardinal sc.Bmc.behaviors <> 3
      then Report.wrong rep "%s: expected exactly 3 outcomes" name
  | Gen.Corpus_entry _ | Gen.Sym_stress _ -> ());
  match List.assoc_opt name K.lint_expectations with
  | Some codes when D.definite_codes a <> List.sort_uniq compare codes ->
      Report.wrong rep "%s: analyzer definite codes differ" name
  | _ -> ()

let run (ctx : Ctx.t) (rep : Report.t) (layers : Layers.t) =
  let inputs, setup_s =
    Ctx.setup_median ~n:15 (fun () -> setup ~seed:ctx.Ctx.seed)
  in
  let tr = ctx.Ctx.trace in
  let times = ref [] and sweep_rates = ref [] in
  let n = ref 0 in
  let bmc_stats = ref [] in
  let incomplete = ref 0 in
  let iters = ref 0 and widens = ref 0 and static_pass = ref 0 in
  Ctx.sweeps ~seconds:ctx.Ctx.seconds ~min_sweeps:2 (fun sweep ->
    let busy0 = List.fold_left ( +. ) 0. !times and k0 = List.length !times in
    Array.iter
      (fun x ->
        let i = !n in
        incr n;
        rep.Report.attempted <- rep.Report.attempted + 1;
        let p = x.p in
        let t0 = Ctx.now () in
        match
          Spans.with_span tr ~req:i "decide" (fun parent ->
              let a =
                Spans.with_span tr ~parent ~req:i "analysis.analyze_prog"
                  (fun _ ->
                    D.analyze_prog ~exempt:p.Gen.b_exempt
                      ~initial_owners:p.Gen.b_owners ~name:p.Gen.b_name
                      p.Gen.b_prog)
              in
              let arm =
                Spans.with_span tr ~parent ~req:i "bmc.check.arm" (fun _ ->
                    Bmc.check ~mode:Bmc.Arm p.Gen.b_prog)
              in
              let sc =
                Spans.with_span tr ~parent ~req:i "bmc.check.sc" (fun _ ->
                    Bmc.check ~mode:Bmc.Sc p.Gen.b_prog)
              in
              (a, arm, sc))
        with
        | exception e ->
            Report.failed rep "%s: %s" p.Gen.b_name (Printexc.to_string e)
        | a, arm, sc ->
            times := (Ctx.now () -. t0) :: !times;
            check rep x a arm sc;
            bmc_stats := arm.Bmc.stats :: sc.Bmc.stats :: !bmc_stats;
            if not (arm.Bmc.complete && sc.Bmc.complete) then incr incomplete;
            List.iter
              (fun (ps : D.pass) ->
                iters := !iters + ps.D.p_stats.Analysis.Absint.st_iters;
                widens := !widens + ps.D.p_stats.Analysis.Absint.st_widens)
              a.D.a_passes;
            if a.D.a_overall = Analysis.Diag.Pass
               && a.D.a_refinement = Analysis.Diag.Pass
            then incr static_pass)
      (Gen.bmc_sweep ~seed:ctx.Ctx.seed sweep inputs);
    let busy = List.fold_left ( +. ) 0. !times -. busy0 in
    if busy > 0. then
      sweep_rates := (float (List.length !times - k0) /. busy) :: !sweep_rates);
  let times = Array.of_list (List.rev !times) in
  let k = Array.length times in
  let busy = Pstats.sum times in
  (* the median sweep's rate: one sweep slowed by a noisy neighbour
     does not move it *)
  let per_s =
    if !sweep_rates = [] then 0. else Pstats.median (Array.of_list !sweep_rates)
  in
  let pct p = if k > 0 then Pstats.percentile times p *. 1000. else 0. in
  let p50 = pct 50. and p90 = pct 90. in
  if not (Pstats.supported k 90.) then
    Report.failed rep "only %d decisions: too few for a p90" k;
  Report.(
    add_detail rep (m ~samples:k "decisions_per_s" per_s "1/s");
    add_detail rep (m ~samples:k "decide_ms.p50" p50 "ms");
    add_detail rep (m ~samples:k "decide_ms.p90" p90 "ms"));
  Report.core_e2e rep ~setup_s ~rss_mb:(Report.peak_rss_mb None)
    ~throughput:per_s ~samples:k;
  let per_op x = if k = 0 then 0. else x /. float k in
  let sum f = float (List.fold_left (fun acc s -> acc + f s) 0 !bmc_stats) in
  let spans = Spans.spans tr in
  let set = Layers.set layers in
  let span_s name = Spans.total_duration spans name in
  set "bmc.check_s" (per_op (span_s "bmc.check.arm" +. span_s "bmc.check.sc"));
  set "bmc.combos" (per_op (sum (fun s -> s.Bmc.combos)));
  set "bmc.models" (per_op (sum (fun s -> s.Bmc.models)));
  set "bmc.feasible_ratio"
    (let models = sum (fun s -> s.Bmc.models) in
     if models = 0. then 0. else sum (fun s -> s.Bmc.outcomes_feasible) /. models);
  set "bmc.incomplete" (per_op (float !incomplete));
  set "bmc.vars" (per_op (sum (fun s -> s.Bmc.vars)));
  set "bmc.clauses" (per_op (sum (fun s -> s.Bmc.clauses)));
  set "bmc.conflicts" (per_op (sum (fun s -> s.Bmc.conflicts)));
  set "bmc.decisions" (per_op (sum (fun s -> s.Bmc.decisions)));
  set "bmc.propagations" (per_op (sum (fun s -> s.Bmc.propagations)));
  set "bmc.learned" (per_op (sum (fun s -> s.Bmc.learned)));
  set "bmc.restarts" (per_op (sum (fun s -> s.Bmc.restarts)));
  set "analysis.analyze_s" (per_op (span_s "analysis.analyze_prog"));
  set "analysis.absint_iters" (per_op (float !iters));
  set "analysis.widens" (per_op (float !widens));
  set "analysis.static_pass_ratio" (Report.ratio !static_pass k);
  (busy, k)
