(** A hand-rolled CDCL SAT solver — the decision core of the BMC
    backend. No external solver dependency: the repo's cross-validation
    story requires the second verdict path to be self-contained.

    The feature set is deliberately classical (MiniSat-style):

    {ul
    {- two-watched-literal unit propagation over per-literal watch
       vectors (MiniSat's [vec]: a growable [int array] plus a live
       length), compacted in place as propagation visits them;}
    {- first-UIP conflict analysis with clause learning;}
    {- VSIDS-style variable activities with exponential decay (picked by
       linear scan — instance sizes here are hundreds of variables, not
       millions);}
    {- geometric restarts with phase saving;}
    {- incremental solving under assumptions, with final-conflict
       analysis producing an UNSAT core (a subset of the assumptions).}}

    Literals use the DIMACS convention: a variable is a positive [int]
    from {!new_var}, a literal is [±v], and clauses are literal lists. *)

type result = Sat | Unsat

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
}

type t = {
  mutable nvars : int;
  mutable clauses : int array array;  (* growable store; learned included *)
  mutable n_clauses : int;
  mutable n_problem : int;  (* clauses added by the user *)
  mutable watches : int array array;  (* watch-lit index -> clause ids *)
  mutable wlen : int array;  (* watch-lit index -> live prefix of [watches] *)
  mutable assigns : int array;  (* var -> 0 unset / 1 true / -1 false *)
  mutable level : int array;
  mutable reason : int array;  (* clause id or -1 for decisions *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  mutable lim : int array;  (* decision level -> trail length at entry *)
  mutable lim_n : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable phase : bool array;
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable ok : bool;  (* false once a top-level contradiction is known *)
  mutable core : int list;
  stats : stats;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 [||];
    n_clauses = 0;
    n_problem = 0;
    watches = Array.make 8 [||];
    wlen = Array.make 8 0;
    assigns = Array.make 4 0;
    level = Array.make 4 0;
    reason = Array.make 4 (-1);
    trail = Array.make 4 0;
    trail_n = 0;
    qhead = 0;
    lim = Array.make 4 0;
    lim_n = 0;
    activity = Array.make 4 0.;
    var_inc = 1.;
    phase = Array.make 4 false;
    seen = Array.make 4 false;
    ok = true;
    core = [];
    stats =
      { conflicts = 0; decisions = 0; propagations = 0; learned = 0;
        restarts = 0 };
  }

let stats s = s.stats
let n_vars s = s.nvars
let n_clauses s = s.n_problem

let grow a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  s.assigns <- grow s.assigns (v + 1) 0;
  s.level <- grow s.level (v + 1) 0;
  s.reason <- grow s.reason (v + 1) (-1);
  s.activity <- grow s.activity (v + 1) 0.;
  s.phase <- grow s.phase (v + 1) false;
  s.seen <- grow s.seen (v + 1) false;
  s.trail <- grow s.trail (v + 1) 0;
  s.lim <- grow s.lim (v + 1) 0;
  s.watches <- grow s.watches (2 * v + 2) [||];
  s.wlen <- grow s.wlen (2 * v + 2) 0;
  v

(* watch-list index of a literal *)
let widx l = if l > 0 then 2 * l else (2 * -l) + 1

(* 1 true, -1 false, 0 unassigned *)
let lit_value s l =
  let v = s.assigns.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v > 0) then 1 else -1

let enqueue s l reason =
  let v = abs l in
  s.assigns.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- s.lim_n;
  s.reason.(v) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let new_decision_level s =
  s.lim.(s.lim_n) <- s.trail_n;
  s.lim_n <- s.lim_n + 1

let backtrack s lvl =
  if s.lim_n > lvl then begin
    let bound = s.lim.(lvl) in
    for i = s.trail_n - 1 downto bound do
      let v = abs s.trail.(i) in
      s.phase.(v) <- s.assigns.(v) > 0;
      s.assigns.(v) <- 0;
      s.reason.(v) <- -1
    done;
    s.trail_n <- bound;
    s.qhead <- bound;
    s.lim_n <- lvl
  end

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay s = s.var_inc <- s.var_inc /. 0.95

(* append clause [cid] to the watch vector of index [wi] *)
let watch s wi cid =
  let n = s.wlen.(wi) in
  if n = Array.length s.watches.(wi) then begin
    let ws = Array.make (max 4 (2 * n)) 0 in
    Array.blit s.watches.(wi) 0 ws 0 n;
    s.watches.(wi) <- ws
  end;
  s.watches.(wi).(n) <- cid;
  s.wlen.(wi) <- n + 1

let push_clause s lits =
  if s.n_clauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.n_clauses) [||] in
    Array.blit s.clauses 0 a 0 s.n_clauses;
    s.clauses <- a
  end;
  let id = s.n_clauses in
  s.clauses.(id) <- lits;
  s.n_clauses <- id + 1;
  watch s (widx lits.(0)) id;
  watch s (widx lits.(1)) id;
  id

(** Unit propagation. Returns the id of a conflicting clause, or -1.
    Each visited watch vector is compacted in place: the watches that
    stay are copied down to a write cursor [j] behind the read cursor
    [i], and the vector's live length is cut to [j]. *)
let propagate s =
  let confl = ref (-1) in
  while !confl = -1 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.stats.propagations <- s.stats.propagations + 1;
    (* clauses watching ¬p must find a new home; a new home is never ¬p
       itself (it is false), so [ws] is not reallocated under us *)
    let wi = widx (-p) in
    let ws = s.watches.(wi) in
    let n = s.wlen.(wi) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cid = ws.(!i) in
      incr i;
      let c = s.clauses.(cid) in
      (* normalize: the false literal ¬p at position 1 *)
      if c.(0) = -p then begin
        c.(0) <- c.(1);
        c.(1) <- -p
      end;
      if lit_value s c.(0) = 1 then begin
        (* satisfied: keep the watch *)
        ws.(!j) <- cid;
        incr j
      end
      else begin
        (* look for a non-false literal to watch instead *)
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && lit_value s c.(!k) = -1 do
          incr k
        done;
        if !k < len then begin
          c.(1) <- c.(!k);
          c.(!k) <- -p;
          watch s (widx c.(1)) cid
        end
        else begin
          ws.(!j) <- cid;
          incr j;
          if lit_value s c.(0) = -1 then begin
            (* conflict: keep the unvisited watches *)
            confl := cid;
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done
          end
          else (* unit: propagate c.(0) *)
            enqueue s c.(0) cid
        end
      end
    done;
    s.wlen.(wi) <- !j
  done;
  !confl

let add_clause s lits =
  if s.ok then begin
    s.n_problem <- s.n_problem + 1;
    backtrack s 0;
    let lits = List.sort_uniq Int.compare lits in
    assert (List.for_all (fun l -> l <> 0 && abs l <= s.nvars) lits);
    let taut = List.exists (fun l -> List.mem (-l) lits) lits in
    let sat_already = List.exists (fun l -> lit_value s l = 1) lits in
    if not (taut || sat_already) then begin
      let lits = List.filter (fun l -> lit_value s l <> -1) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s l (-1);
          if propagate s <> -1 then s.ok <- false
      | _ :: _ :: _ ->
          (* at level 0 with true and false literals filtered out,
             every remaining literal is unassigned: watch the first two *)
          ignore (push_clause s (Array.of_list lits))
    end
  end

(** First-UIP conflict analysis: returns the learned clause (asserting
    literal first) and the backjump level. *)
let analyze s confl =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  let confl = ref confl in
  let index = ref s.trail_n in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!confl) in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = abs q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            bump s v;
            if s.level.(v) >= s.lim_n then incr counter
            else learned := q :: !learned
          end
        end)
      c;
    (* find the next marked literal on the trail *)
    let rec back () =
      decr index;
      if not s.seen.(abs s.trail.(!index)) then back ()
    in
    back ();
    let q = s.trail.(!index) in
    let v = abs q in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      p := -q;
      continue := false
    end
    else begin
      p := q;
      confl := s.reason.(v)
    end
  done;
  List.iter (fun q -> s.seen.(abs q) <- false) !learned;
  let blevel =
    List.fold_left (fun acc q -> max acc s.level.(abs q)) 0 !learned
  in
  (!p :: !learned, blevel)

(* Record the learned clause and enqueue its asserting literal. *)
let learn s lits blevel =
  backtrack s blevel;
  s.stats.learned <- s.stats.learned + 1;
  match lits with
  | [ l ] -> enqueue s l (-1)
  | l :: _ ->
      let c = Array.of_list lits in
      (* watch the asserting literal and one literal of the backjump
         level (any literal assigned at [blevel] keeps the invariant) *)
      let n = Array.length c in
      let best = ref 1 in
      for k = 2 to n - 1 do
        if s.level.(abs c.(k)) > s.level.(abs c.(!best)) then best := k
      done;
      let tmp = c.(1) in
      c.(1) <- c.(!best);
      c.(!best) <- tmp;
      let cid = push_clause s c in
      enqueue s l cid
  | [] -> assert false

(** Final-conflict analysis: the failing assumption plus every
    assumption its refutation rests on. *)
let analyze_final s a =
  let core = ref [ a ] in
  let v0 = abs a in
  if s.level.(v0) > 0 || s.reason.(v0) >= 0 then s.seen.(v0) <- true;
  for i = s.trail_n - 1 downto 0 do
    let q = s.trail.(i) in
    let v = abs q in
    if s.seen.(v) then begin
      s.seen.(v) <- false;
      if s.reason.(v) = -1 then begin
        (* an assumption decision *)
        if s.level.(v) > 0 then core := q :: !core
      end
      else
        Array.iter
          (fun l ->
            let u = abs l in
            if u <> v && s.level.(u) > 0 then s.seen.(u) <- true)
          s.clauses.(s.reason.(v))
    end
  done;
  List.sort_uniq compare !core

let solve ?(assumptions = []) s =
  s.core <- [];
  if not s.ok then Unsat
  else begin
    backtrack s 0;
    let assumps = Array.of_list assumptions in
    let conf_budget = ref 100 in
    let conf_count = ref 0 in
    let result = ref None in
    while !result = None do
      let confl = propagate s in
      if confl >= 0 then begin
        s.stats.conflicts <- s.stats.conflicts + 1;
        incr conf_count;
        if s.lim_n = 0 then result := Some Unsat
        else begin
          let learned, blevel = analyze s confl in
          learn s learned blevel;
          decay s;
          if !conf_count >= !conf_budget then begin
            (* geometric restart *)
            conf_count := 0;
            conf_budget := !conf_budget * 3 / 2;
            s.stats.restarts <- s.stats.restarts + 1;
            backtrack s 0
          end
        end
      end
      else if s.lim_n < Array.length assumps then begin
        (* take the next assumption as a decision *)
        let a = assumps.(s.lim_n) in
        match lit_value s a with
        | 1 -> new_decision_level s (* already implied: vacuous level *)
        | -1 ->
            s.core <- analyze_final s a;
            result := Some Unsat
        | _ ->
            new_decision_level s;
            enqueue s a (-1)
      end
      else begin
        (* VSIDS decision: unassigned variable of max activity *)
        let best = ref 0 in
        for v = 1 to s.nvars do
          if
            s.assigns.(v) = 0
            && (!best = 0 || s.activity.(v) > s.activity.(!best))
          then best := v
        done;
        if !best = 0 then result := Some Sat
        else begin
          s.stats.decisions <- s.stats.decisions + 1;
          new_decision_level s;
          enqueue s (if s.phase.(!best) then !best else - !best) (-1)
        end
      end
    done;
    Option.get !result
  end

let value s v = s.assigns.(v) > 0
let unsat_core s = s.core
