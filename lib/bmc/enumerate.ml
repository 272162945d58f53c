(** All-solutions loop: enumerate every observationally distinct model
    of every control-flow combo and decode each into an outcome.

    Each [Sat] answer fixes a reads-from choice; {!Candidate.decode}
    replays the paths under it. A feasible model contributes an outcome
    and is blocked on its full observation projection (reads-from +
    co-last); an infeasible or value-cyclic model is blocked on its
    reads-from projection alone, which is sound because feasibility
    depends only on the reads-from choice. Projections are finite and
    every blocking clause kills at least the current model, so the loop
    terminates. *)

open Memmodel

type stats = {
  combos : int;
  models : int;  (** satisfying assignments decoded *)
  outcomes_feasible : int;
  infeasible : int;  (** models whose guards/addresses disagreed *)
  stuck : int;  (** out-of-thin-air value cycles dropped *)
  vars : int;
  clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
}

let run ~mode ?bound (prog : Prog.t) : Behavior.t * bool * stats =
  let combos =
    match bound with
    | None -> Candidate.combos prog
    | Some bound -> Candidate.combos ~bound prog
  in
  let behaviors = ref Behavior.empty in
  let models = ref 0 and feasible = ref 0 and infeasible = ref 0 in
  let stuck = ref 0 and vars = ref 0 and clauses = ref 0 in
  let conflicts = ref 0 and decisions = ref 0 and propagations = ref 0 in
  let learned = ref 0 and restarts = ref 0 in
  List.iter
    (fun (x : Candidate.combo) ->
      let enc = Encode.build ~mode prog x in
      let status = Candidate.status_of x in
      let running = ref true in
      while !running do
        match Encode.solve enc with
        | Sat.Unsat -> running := false
        | Sat.Sat -> (
            incr models;
            let rf = Encode.rf_of_model enc in
            match Candidate.decode prog x ~rf with
            | Candidate.Feasible res ->
                let co_last loc = Encode.co_last_of_model enc loc in
                behaviors :=
                  Behavior.add
                    (Behavior.outcome ~status
                       (Candidate.outcome_values prog x res ~co_last))
                    !behaviors;
                incr feasible;
                Encode.block enc ~full:true
            | Candidate.Infeasible ->
                incr infeasible;
                Encode.block enc ~full:false
            | Candidate.Stuck ->
                incr stuck;
                Encode.block enc ~full:false)
      done;
      let ss = Encode.sat_stats enc in
      vars := !vars + Encode.n_vars enc;
      clauses := !clauses + Encode.n_clauses enc;
      conflicts := !conflicts + ss.Sat.conflicts;
      decisions := !decisions + ss.Sat.decisions;
      propagations := !propagations + ss.Sat.propagations;
      learned := !learned + ss.Sat.learned;
      restarts := !restarts + ss.Sat.restarts)
    combos;
  let st =
    {
      combos = List.length combos;
      models = !models;
      outcomes_feasible = !feasible;
      infeasible = !infeasible;
      stuck = !stuck;
      vars = !vars;
      clauses = !clauses;
      conflicts = !conflicts;
      decisions = !decisions;
      propagations = !propagations;
      learned = !learned;
      restarts = !restarts;
    }
  in
  (* Completeness is semantic, not syntactic: unrolling always leaves a
     residual guard-still-true path behind every [While], but when that
     path's guard cannot actually hold (the loop provably exits within
     the bound) every model choosing it is infeasible and the behavior
     set is exact. Only a FEASIBLE truncated execution — one that
     surfaced as a [Fuel_exhausted] outcome — makes the verdict
     bound-limited. *)
  let complete =
    not
      (Behavior.Outcome_set.exists
         (fun o -> o.Behavior.status = Behavior.Fuel_exhausted)
         !behaviors)
  in
  (!behaviors, complete, st)
