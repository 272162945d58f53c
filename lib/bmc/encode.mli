(** CNF encoding of one {!Candidate.combo} over axiomatic candidate
    executions: reads-from choice variables per load, order-matrix
    variables witnessing acyclicity of po-loc ∪ rf ∪ co ∪ fr (Arm
    internal axiom, per location) and of ob (Arm external axiom) — or of
    a single po-respecting interleaving order under SC — plus co-last
    witnesses for observed locations. Coherence is the order matrix
    restricted to same-location writes; values stay out of the instance
    (decode-and-check). *)

open Memmodel

type mode = Arm | Sc

(** {2 Order matrices} *)

type matrix
(** One order variable per unordered pair of events in a class, stored
    flat over all [n] events of a combo and indexed [a * n + b]. *)

val matrix : int -> matrix
(** An empty matrix over [n] events: no pair has a variable yet. *)

val add_class : Cnf.t -> matrix -> int array -> unit
(** [add_class b mx cls] gives every pair of [cls] (distinct event ids,
    ascending) a fresh variable and adds the transitivity clauses that
    make every model order [cls] totally: two per unordered triple,
    2·C(k,3) for a class of k events. Classes of one matrix must be
    disjoint. *)

val ord : matrix -> int -> int -> int
(** [ord mx a b]: the literal "a is order-before b". Raises [Not_found]
    when [a] and [b] share no class. *)

(** {2 Combos} *)

type t = {
  cnf : Cnf.t;
  combo : Candidate.combo;
  mode : mode;
  rf_vars : (int * int) array array;
      (** read event id -> (writer event id | -1 for the initial write,
          variable); empty for events that are not reads *)
  colast_vars : (Loc.t * (int * int) list) list;
}

val build : mode:mode -> Prog.t -> Candidate.combo -> t

val solve : t -> Sat.result

val rf_of_model : t -> int -> int
(** After [Sat]: the writer (event id, or -1 for the initial write) each
    read reads from in the current model. *)

val co_last_of_model : t -> Loc.t -> int option
(** After [Sat]: the co-maximal write on an observed location, [None]
    when the combo has no write there. *)

val block : t -> full:bool -> unit
(** Exclude the current model's observation projection (reads-from
    choice, plus co-last witnesses when [full]). *)

val n_vars : t -> int
val n_clauses : t -> int
val sat_stats : t -> Sat.stats
