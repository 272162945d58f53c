(** Compile one {!Candidate.combo} (a k-bounded control-flow path
    choice) into CNF over axiomatic candidate executions.

    Variables:

    {ul
    {- one {e reads-from choice} variable per (load, candidate writer)
       pair — the writers on the load's location plus the initial write —
       under an exactly-one constraint per load;}
    {- an {e order matrix}: one boolean per unordered event pair, whose
       polarity gives the direction, so every assignment is a tournament.
       A tournament is a total order iff it has no 3-cycle, and an
       unordered triple has exactly two cyclic orientations, so two
       clauses per triple — 2·C(n,3) per class of n events — make it a
       total order (the transitivity clause
       [ord(a,b) ∧ ord(b,c) → ord(a,c)] of each of the six orderings of
       a triple is one of these two, up to literal order). Arm mode uses
       two families — a per-location matrix witnessing the
       {b internal} axiom (acyclic po-loc ∪ rf ∪ co ∪ fr) and a global
       matrix witnessing the {b external} axiom (acyclic ob); SC mode
       uses a single global matrix containing
       program order (Shasha–Snir: SC = some interleaving respecting po
       in which every read sees the latest same-location write);}
    {- a {e co-last} witness per observed location ([Obs_loc]), Tseitin-
       defined as "every other write is order-before me".}}

    The coherence order is not a separate variable family: co(w,w') is
    {e defined} as the order-matrix entry for (w,w') — the matrix totally
    orders same-location writes, and any total extension of a valid
    candidate's relations restricts back to its co, so the aliasing is
    exact. A relation is acyclic iff it embeds in a total order, so the
    axioms become: static edges (po-loc, dependency order, barrier
    order) are unit clauses, and each rf choice implies its rf/fr edges
    conditionally. RMW atomicity needs no extra clauses: the fr clauses
    already force the RMW's write order-adjacent to its reads-from
    source among writes.

    Values stay out of the SAT instance entirely (decode-and-check, in
    the style of lazy SMT): {!Enumerate} resolves values per model via
    {!Candidate.decode} and blocks the model's observation projection. *)

open Memmodel

type mode = Arm | Sc

(** An order matrix over the [n] events of a combo, flat: entry
    [a * n + b] is the literal "a is order-before b" — the pair's
    variable above the diagonal, its negation below — and 0 when [a]
    and [b] share no class (or [a = b]). *)
type matrix = { n : int; lits : int array }

let matrix n = { n; lits = Array.make (n * n) 0 }

let ord mx a b =
  let l = mx.lits.((a * mx.n) + b) in
  if l = 0 then raise Not_found else l

(* Give every pair of [cls] (ascending event ids) a fresh variable, in
   lexicographic pair order, then make the class's restriction a total
   order: for each triple i < j < k, exclude the cycle i→j→k→i and the
   cycle i→k→j→i. *)
let add_class b mx (cls : int array) =
  let k = Array.length cls in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let v = Cnf.fresh b in
      mx.lits.((cls.(i) * mx.n) + cls.(j)) <- v;
      mx.lits.((cls.(j) * mx.n) + cls.(i)) <- -v
    done
  done;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let oij = ord mx cls.(i) cls.(j) in
      for l = j + 1 to k - 1 do
        let ojl = ord mx cls.(j) cls.(l) and oil = ord mx cls.(i) cls.(l) in
        Cnf.clause b [ -oij; -ojl; oil ];
        Cnf.clause b [ oij; ojl; -oil ]
      done
    done
  done

type t = {
  cnf : Cnf.t;
  combo : Candidate.combo;
  mode : mode;
  rf_vars : (int * int) array array;
      (** read event id -> (writer event id | -1 for init, variable);
          empty for events that are not reads *)
  colast_vars : (Loc.t * (int * int) list) list;
      (** observed location -> (write event id, variable) *)
}

let build ~mode (prog : Prog.t) (x : Candidate.combo) : t =
  let b = Cnf.create () in
  let n = Array.length x.events in
  (* per location: its events and its writes, ascending ids *)
  let classes =
    List.map
      (fun loc ->
        let evs =
          List.filter
            (fun (e : Candidate.event) -> e.loc = Some loc)
            (Array.to_list x.events)
        in
        ( loc,
          Array.of_list (List.map (fun (e : Candidate.event) -> e.id) evs),
          List.filter_map
            (fun (e : Candidate.event) ->
              if Candidate.is_write e then Some e.id else None)
            evs ))
      (Candidate.locs x)
  in
  let writes_on loc =
    match List.find_opt (fun (l, _, _) -> Loc.equal l loc) classes with
    | Some (_, _, ws) -> ws
    | None -> []
  in
  (* global order matrix; the per-location one (Arm) shares one flat
     array across the disjoint location classes, and is the global one
     under SC *)
  let gm = matrix n in
  add_class b gm (Array.init n Fun.id);
  let ordg = ord gm in
  let ordloc =
    match mode with
    | Sc -> ordg
    | Arm ->
        let lm = matrix n in
        List.iter (fun (_, cls, _) -> add_class b lm cls) classes;
        ord lm
  in
  (* static edges as unit clauses *)
  (match mode with
  | Sc ->
      (* po ⊆ ordg subsumes po-loc, dependency and barrier order *)
      List.iter
        (fun ((a : Candidate.event), (c : Candidate.event)) ->
          Cnf.clause b [ ordg a.id c.id ])
        (Candidate.po_pairs x)
  | Arm ->
      List.iter
        (fun (a, c) -> Cnf.clause b [ ordloc a c ])
        (Candidate.po_loc_edges x);
      List.iter
        (fun (a, c) -> Cnf.clause b [ ordg a c ])
        (Candidate.static_ob_edges x));
  (* reads-from choices with their conditional rf / fr edges *)
  let tid i = x.events.(i).Candidate.tid in
  let external_edges = mode = Arm in
  let rf_by_read =
    List.map
      (fun (r : Candidate.event) ->
        let ws = writes_on (Option.get r.loc) in
        (* an RMW never reads its own write (the enumerating checker
           rejects the self-loop via the internal axiom) *)
        let sources = List.filter (fun w -> w <> r.id) ws in
        let choices =
          List.map (fun w -> (w, Cnf.fresh b)) sources
          @ [ (-1, Cnf.fresh b) ]
        in
        Cnf.exactly_one b (List.map snd choices);
        List.iter
          (fun (w, v) ->
            if w = -1 then
              (* reads the initial write: fr to every write on the
                 location (except an RMW's own write) *)
              List.iter
                (fun w' ->
                  if w' <> r.id then begin
                    Cnf.clause b [ -v; ordloc r.id w' ];
                    if external_edges && tid w' <> r.tid then
                      Cnf.clause b [ -v; ordg r.id w' ]
                  end)
                ws
            else begin
              (* rf: the writer is order-before the read *)
              Cnf.clause b [ -v; ordloc w r.id ];
              if external_edges && tid w <> r.tid then
                Cnf.clause b [ -v; ordg w r.id ];
              (* fr: any write after the writer is after the read *)
              List.iter
                (fun w' ->
                  if w' <> w && w' <> r.id then begin
                    Cnf.clause b [ -v; -(ordloc w w'); ordloc r.id w' ];
                    if external_edges && tid w' <> r.tid then
                      Cnf.clause b [ -v; -(ordloc w w'); ordg r.id w' ]
                  end)
                ws
            end)
          choices;
        (r.id, Array.of_list choices))
      (Candidate.reads x)
  in
  let rf_vars = Array.make n [||] in
  List.iter (fun (r, choices) -> rf_vars.(r) <- choices) rf_by_read;
  (* coe: cross-thread coherence is externally observed (Arm only) *)
  if external_edges then
    List.iter
      (fun (_, _, ws) ->
        List.iter
          (fun w ->
            List.iter
              (fun w' ->
                if w <> w' && tid w <> tid w' then
                  Cnf.clause b [ -(ordloc w w'); ordg w w' ])
              ws)
          ws)
      classes;
  (* co-last witnesses for observed locations *)
  let observed =
    List.sort_uniq compare
      (List.filter_map
         (function Prog.Obs_loc l -> Some l | Prog.Obs_reg _ -> None)
         prog.Prog.observables)
  in
  let colast_vars =
    List.map
      (fun loc ->
        let ws = writes_on loc in
        let vars =
          List.map
            (fun w ->
              let v = Cnf.fresh b in
              List.iter
                (fun w' ->
                  if w' <> w then Cnf.clause b [ -v; ordloc w' w ])
                ws;
              Cnf.clause b
                (v
                :: List.filter_map
                     (fun w' ->
                       if w' <> w then Some (-(ordloc w' w)) else None)
                     ws);
              (w, v))
            ws
        in
        if vars <> [] then Cnf.at_least_one b (List.map snd vars);
        (loc, vars))
      observed
  in
  { cnf = b; combo = x; mode; rf_vars; colast_vars }

let solve t = Cnf.solve t.cnf

(** After [Sat]: the reads-from choice of the current model. *)
let rf_of_model t (r : int) : int =
  match Array.find_opt (fun (_, v) -> Cnf.value t.cnf v) t.rf_vars.(r) with
  | Some (w, _) -> w
  | None -> -1 (* unreachable under the exactly-one constraint *)

(** After [Sat]: the co-maximal write on an observed location. *)
let co_last_of_model t loc : int option =
  match List.assoc_opt loc t.colast_vars with
  | None | Some [] -> None
  | Some vars ->
      Option.map fst
        (List.find_opt (fun (_, v) -> Cnf.value t.cnf v) vars)

(** Block the current model's observation projection: its reads-from
    choice and, when [full], its co-last witnesses. Infeasible models
    (guard or address disagreement) are blocked on the reads-from
    projection alone — feasibility depends only on rf. *)
let block t ~full =
  let co_lits =
    if not full then []
    else
      List.concat_map
        (fun (_, vars) ->
          List.filter_map
            (fun (_, v) -> if Cnf.value t.cnf v then Some (-v) else None)
            vars)
        t.colast_vars
  in
  let lits = ref co_lits in
  for r = Array.length t.rf_vars - 1 downto 0 do
    Array.iter
      (fun (_, v) -> if Cnf.value t.cnf v then lits := -v :: !lits)
      t.rf_vars.(r)
  done;
  Cnf.clause t.cnf !lits

let n_vars t = Sat.n_vars t.cnf.Cnf.sat
let n_clauses t = Sat.n_clauses t.cnf.Cnf.sat
let sat_stats t = Sat.stats t.cnf.Cnf.sat
