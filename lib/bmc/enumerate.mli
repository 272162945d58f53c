(** All-solutions loop over the CNF encoding: blocking clauses on the
    observation projection (reads-from choices + co-last witnesses)
    yield every observationally distinct behavior. *)

open Memmodel

type stats = {
  combos : int;
  models : int;
  outcomes_feasible : int;
  infeasible : int;
  stuck : int;
  vars : int;
  clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
}

val run : mode:Encode.mode -> ?bound:int -> Prog.t -> Behavior.t * bool * stats
(** [(behaviors, complete, stats)] — [complete] is false when some
    feasible execution was truncated at the unrolling bound (it appears
    as a [Fuel_exhausted] outcome) and the behavior set is then a
    bound-limited under-approximation. A loop that provably exits within
    the bound stays complete: the residual unrolled path is infeasible
    and contributes nothing. Raises {!Candidate.Unsupported} outside the
    fragment. *)
