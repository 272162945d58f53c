(** Executable Promising Arm relaxed-memory model.

    This is an operational model in the style of Promising-ARM (Pulte et
    al., PLDI 2019), the model the paper's Coq proofs are carried out on.
    Memory is an append-only list of timestamped {e messages}; each thread
    executes its instructions {e in program order} but may {e promise}
    future stores (append the message before executing the store), provided
    it can {e certify} the promise — demonstrate, by running solo, that it
    will fulfill it. Relaxed behavior arises from (a) promises, which let
    other threads observe a store "early", and (b) stale reads, since a load
    may return any coherent message not superseded below the thread's read
    floor.

    Per-thread views implement the four Armv8 ordering constraints the
    paper lists in §4:
    {ul
    {- data dependencies: registers carry views; a store's message timestamp
       must exceed the view of its data;}
    {- address dependencies: likewise for the address computation, and the
       read floor of a load includes its address view;}
    {- coherence: per-location [coh] timestamps forbid same-location
       reordering;}
    {- barriers: DMB instructions and acquire/release accesses raise the
       read/write floors [vrnew]/[vwnew].}}

    Control dependencies order stores (via [vctrl]) but not loads, which is
    what permits the load speculation of the paper's Example 2.

    Simplifications relative to full Promising-ARM, none of which affect
    the kernel-code corpus verified here: RMWs (ticket-lock
    [fetch_and_inc]) are not promotable and always read the
    coherence-latest message (their success case); there is no
    instruction-fetch or mixed-size machinery. *)

type message = {
  mloc : Loc.t;
  mval : int;
  ts : int;  (** position in the append-only memory; 0 = initial *)
  wtid : int;  (** writing thread; -1 for initial messages *)
}

type tstate = {
  code : Instr.t list;
  regs : (int * int) Reg.Map.t;  (** value, view *)
  coh : int Loc.Map.t;  (** per-location coherence timestamp *)
  vrnew : int;  (** read floor (acquire loads, DMB LD/full) *)
  vwnew : int;  (** write floor (DMB ST/LD/full, acquire loads) *)
  vctrl : int;  (** control-dependency view: orders stores only *)
  vrmax : int;  (** join of views of executed reads (for DMB LD) *)
  vwmax : int;  (** join of timestamps of executed writes (for DMB ST) *)
  vall : int;  (** join of everything (for DMB full, release stores) *)
  vrel : int;
      (** timestamp of this thread's latest release write: acquire loads
          read no older than it (Armv8 release/acquire is RCsc — the
          [L];po;[A] ordering of the axiomatic model) *)
  fuel : int;
  promise_budget : int;
  promises : int list;  (** timestamps of outstanding promises *)
}

type state = {
  mem : message list;  (** newest first *)
  next_ts : int;
  threads : tstate array;
  tkeys : Statekey.h Lazy.t array;
      (** [tkeys.(i)] is {!thread_prefix} of [threads.(i)]: the hasher
          after [hash_thread], never extended in place. A step replaces
          the entry of the one thread it moves and shares every other
          entry with the parent state, so keying a state hashes the
          memory plus at most one thread. Forced by whichever domain
          keys the state, before any descendant can be published to
          another domain — no suspension is ever forced concurrently. *)
}

type config = {
  loop_fuel : int;  (** max loop iterations per thread *)
  max_promises : int;  (** max outstanding+fulfilled promises per thread *)
  cert_depth : int;  (** max solo steps during certification *)
  max_states : int;  (** exploration safety valve *)
  strict_certification : bool;
      (** re-certify every thread's outstanding promises at every step (the
          letter of the Promising semantics) instead of pruning
          unfulfillable paths at the end — same final outcomes, higher
          cost; kept as a cross-check of the lazy default *)
  cert_cache : bool;
      (** memoize certification verdicts per equivalence class (shared
          memory + certifying thread + other threads' outstanding
          promises) for the duration of one exploration; verdict-
          preserving, so the behavior set is identical either way —
          disable for A/B runs ([--no-cert-cache]) *)
}

let default_config =
  { loop_fuel = 24; max_promises = 2; cert_depth = 64;
    max_states = 2_000_000; strict_certification = false;
    cert_cache = true }

exception Thread_panic
exception State_budget_exhausted

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> (0, 0)

let coh_of t loc =
  match Loc.Map.find_opt loc t.coh with Some v -> v | None -> 0

(* Messages on [loc], including a virtual initial message at ts 0. *)
let messages_on st init_val loc =
  let explicit = List.filter (fun m -> Loc.equal m.mloc loc) st.mem in
  if List.exists (fun m -> m.ts = 0) explicit then explicit
  else explicit @ [ { mloc = loc; mval = init_val loc; ts = 0; wtid = -1 } ]

(** Readable messages for a load of [loc] by thread [i]: coherent
    ([ts >= coh]), not superseded below the floor, and not one of the
    thread's own unfulfilled promises. The staleness bound is the ts of
    the latest message on [loc] at or below the floor. *)
let readable st init_val (t : tstate) loc ~floor =
  let msgs = messages_on st init_val loc in
  let lb =
    List.fold_left
      (fun acc m -> if m.ts <= floor && m.ts > acc then m.ts else acc)
      0 msgs
  in
  let lo = max (coh_of t loc) lb in
  List.filter (fun m -> m.ts >= lo && not (List.mem m.ts t.promises)) msgs

type step_result =
  | Next of state * Porlabel.t
      (** successor plus its POR footprint (a shared dummy unless the
          caller asked for footprints) *)
  | Fuel_out
  | Stuck  (** no legal transition, e.g. no fulfillable store slot *)

(** One line of a witness schedule: which CPU did what. *)
type step = {
  s_tid : int;  (** thread id (as declared in the program) *)
  s_what : string;  (** human-readable action *)
}

let pp_step fmt s = Format.fprintf fmt "CPU %d: %s" s.s_tid s.s_what

let pp_schedule fmt steps =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_step fmt steps

let hash_thread h (t : tstate) =
  Statekey.char h 'T';
  Statekey.int h t.vrnew;
  Statekey.int h t.vwnew;
  Statekey.int h t.vctrl;
  Statekey.int h t.vrmax;
  Statekey.int h t.vwmax;
  Statekey.int h t.vall;
  Statekey.int h t.vrel;
  Statekey.int h t.fuel;
  Statekey.int h t.promise_budget;
  Statekey.int h (Reg.Map.cardinal t.regs);
  Reg.Map.iter
    (fun r (v, w) ->
      Statekey.str h (Reg.name r);
      Statekey.int h v;
      Statekey.int h w)
    t.regs;
  Statekey.int h (Loc.Map.cardinal t.coh);
  Loc.Map.iter
    (fun l c ->
      Statekey.loc h l;
      Statekey.int h c)
    t.coh;
  Statekey.int h (List.length t.promises);
  List.iter (Statekey.int h) t.promises;
  Statekey.instrs h t.code

(* One thread's hash prefix: every state key finishes or extends it
   (through [Statekey.copy]) instead of rehashing the thread. *)
let thread_prefix (t : tstate) : Statekey.h =
  let h = Statekey.fresh () in
  hash_thread h t;
  h

let set_thread st i t' =
  let threads = Array.copy st.threads in
  threads.(i) <- t';
  let tkeys = Array.copy st.tkeys in
  tkeys.(i) <- lazy (thread_prefix t');
  { st with threads; tkeys }

(* Shared placeholder footprint for solo runs and label-free search:
   never consulted, never compared. *)
let dummy_fp = Porlabel.empty ~tid:(-1)

(* Atomic read-modify-writes (FAA, XCHG, CAS) read the coherence-latest
   message and, when [new_value] yields a write, append the new message
   adjacent to it (the append-only memory keeps the pair per-location
   adjacent forever). Reading an unfulfilled promise is refused: the pair
   could no longer be kept atomic. A CAS whose [new_value] is [None]
   (comparison failed) degenerates to a read of the latest message.

   Footprints: the write case allocates a timestamp ([alloc]) and both
   appends to and depends on the base's message history ([cert_write] —
   it moves the coherence-latest message other threads' RMWs and
   certifications look at; [cert_read] — its own enabledness depends on
   whether the latest message is anyone's outstanding promise, which a
   fulfil of the same base can change). *)
let rmw_step ~fp st init_val i t rest ~loc ~va ~vd ~ord ~dst ~new_value :
    step_result list =
  let msgs = messages_on st init_val loc in
  let latest =
    List.fold_left (fun acc m -> if m.ts > acc.ts then m else acc)
      (List.hd msgs) msgs
  in
  let is_promise =
    Array.exists (fun th -> List.mem latest.ts th.promises) st.threads
  in
  if is_promise then [ Stuck ]
  else
    let acq = ord = Instr.Acquire || ord = Instr.Acq_rel in
    let rel = ord = Instr.Release || ord = Instr.Acq_rel in
    match new_value latest.mval with
    | Some v ->
        let ts = st.next_ts in
        let m = { mloc = loc; mval = v; ts; wtid = i } in
        let view = max latest.ts (max va vd) in
        let t' =
          { t with
            code = rest;
            regs = Reg.Map.add dst (latest.mval, view) t.regs;
            coh = Loc.Map.add loc ts t.coh;
            vrmax = max t.vrmax view;
            vwmax = max t.vwmax ts;
            vall = max t.vall ts;
            vrel = (if rel then max t.vrel ts else t.vrel);
            vrnew = (if acq then max t.vrnew latest.ts else t.vrnew);
            vwnew = (if acq then max t.vwnew latest.ts else t.vwnew) }
        in
        let lbl =
          if fp then
            { (Porlabel.rmw ~tid:i loc) with
              alloc = true;
              cert_read = [ Loc.base loc ];
              cert_write = [ Loc.base loc ] }
          else dummy_fp
        in
        [ Next
            ( set_thread { st with mem = m :: st.mem; next_ts = ts + 1 } i t',
              lbl ) ]
    | None ->
        let view = max latest.ts (max va vd) in
        let t' =
          { t with
            code = rest;
            regs = Reg.Map.add dst (latest.mval, view) t.regs;
            coh = Loc.Map.add loc (max (coh_of t loc) latest.ts) t.coh;
            vrmax = max t.vrmax view;
            vall = max t.vall view;
            vrnew = (if acq then max t.vrnew latest.ts else t.vrnew);
            vwnew = (if acq then max t.vwnew latest.ts else t.vwnew) }
        in
        let lbl =
          if fp then
            { (Porlabel.read ~tid:i loc) with
              cert_read = [ Loc.base loc ] }
          else dummy_fp
        in
        [ Next (set_thread st i t', lbl) ]

(* Conservative default observability: every register counts as
   observable, so locally-invisible steps are never marked ample unless
   the caller supplies the program's real observation set. *)
let any_reg : Reg.t -> bool = fun _ -> true

(** Successor states of executing the next instruction of thread [i]
    (several for a load: one per readable message). [fp] asks for real
    POR footprints on each successor (solo certification runs leave it
    off and get a shared dummy); [silent_ok] additionally allows
    invisible deterministic steps to claim the singleton-ample property
    — the caller must guarantee the thread has no promise-step siblings
    at this state; [obs] tells which registers observation can see. *)
let step_thread ?(fp = false) ?(silent_ok = false) ?(obs = any_reg)
    (st : state) init_val (i : int) : step_result list =
  let t = st.threads.(i) in
  (* invisible, deterministic, thread-local step *)
  let quiet_lbl () =
    if not fp then dummy_fp
    else if silent_ok then Porlabel.silent ~tid:i
    else Porlabel.empty ~tid:i
  in
  match t.code with
  | [] -> invalid_arg "Promising.step_thread: thread done"
  | instr :: rest -> (
      try
        match instr with
        | Instr.Nop | Instr.Pull _ | Instr.Push _ | Instr.Tlbi _ ->
            [ Next (set_thread st i { t with code = rest }, quiet_lbl ()) ]
        | Instr.Panic -> raise Thread_panic
        | Instr.Move (r, e) ->
            let v, w = Expr.eval_v (lookup_reg t.regs) e in
            let lbl =
              if not fp then dummy_fp
              else if obs r then Porlabel.private_ ~tid:i
              else quiet_lbl ()
            in
            [ Next
                ( set_thread st i
                    { t with code = rest; regs = Reg.Map.add r (v, w) t.regs },
                  lbl ) ]
        | Instr.Barrier b ->
            let t' =
              match b with
              | Instr.Dmb_full ->
                  let v = max t.vall (max t.vrnew t.vwnew) in
                  { t with code = rest; vrnew = v; vwnew = v }
              | Instr.Dmb_ld ->
                  { t with
                    code = rest;
                    vrnew = max t.vrnew t.vrmax;
                    vwnew = max t.vwnew t.vrmax }
              | Instr.Dmb_st ->
                  { t with code = rest; vwnew = max t.vwnew t.vwmax }
              | Instr.Isb -> { t with code = rest; vrnew = max t.vrnew t.vctrl }
            in
            [ Next (set_thread st i t', quiet_lbl ()) ]
        | Instr.Load (r, a, ord) ->
            let loc, va = Expr.eval_addr (lookup_reg t.regs) a in
            let acq_floor =
              if ord = Instr.Acquire || ord = Instr.Acq_rel then t.vrel
              else 0
            in
            let floor = max (max t.vrnew va) acq_floor in
            let choices = readable st init_val t loc ~floor in
            List.map
              (fun m ->
                let view = max m.ts va in
                let t' =
                  { t with
                    code = rest;
                    regs = Reg.Map.add r (m.mval, view) t.regs;
                    coh = Loc.Map.add loc (max (coh_of t loc) m.ts) t.coh;
                    vrmax = max t.vrmax view;
                    vall = max t.vall view;
                    vrnew =
                      (if ord = Instr.Acquire || ord = Instr.Acq_rel then
                         max t.vrnew m.ts
                       else t.vrnew);
                    vwnew =
                      (if ord = Instr.Acquire || ord = Instr.Acq_rel then
                         max t.vwnew m.ts
                       else t.vwnew) }
                in
                (* the read message's timestamp discriminates the choice
                   — intrinsic to the transition, stable across
                   independent other-thread moves *)
                let lbl =
                  if fp then
                    { (Porlabel.read ~tid:i loc) with disc = m.ts }
                  else dummy_fp
                in
                Next (set_thread st i t', lbl))
              choices
        | Instr.Store (a, e, ord) ->
            let loc, va = Expr.eval_addr (lookup_reg t.regs) a in
            let v, vd = Expr.eval_v (lookup_reg t.regs) e in
            let lower = max (coh_of t loc)
                (max va (max vd (max t.vctrl t.vwnew)))
            in
            let is_release = ord = Instr.Release || ord = Instr.Acq_rel in
            let commit ts mem next_ts promises lbl =
              let t' =
                { t with
                  code = rest;
                  coh = Loc.Map.add loc ts t.coh;
                  vwmax = max t.vwmax ts;
                  vall = max t.vall ts;
                  vrel = (if is_release then max t.vrel ts else t.vrel);
                  promises }
              in
              let st' = { st with mem; next_ts } in
              Next (set_thread st' i t', lbl)
            in
            (* fulfill one of our promises... *)
            let fulfills =
              List.filter_map
                (fun p ->
                  match
                    List.find_opt (fun m -> m.ts = p && m.wtid = i) st.mem
                  with
                  | Some m
                    when Loc.equal m.mloc loc && m.mval = v && m.ts > lower
                         && ((not is_release) || m.ts > t.vall) ->
                      (* flips the message's outstanding-promise status:
                         other threads' RMW enabledness and
                         certification keys on this base can change *)
                      let lbl =
                        if fp then
                          { (Porlabel.write ~tid:i loc) with
                            cert_write = [ Loc.base loc ];
                            disc = m.ts }
                        else dummy_fp
                      in
                      Some
                        (commit m.ts st.mem st.next_ts
                           (List.filter (fun q -> q <> p) t.promises)
                           lbl)
                  | _ -> None)
                t.promises
            in
            (* ... or append a fresh message at the end of memory. *)
            let append =
              let ts = st.next_ts in
              let m = { mloc = loc; mval = v; ts; wtid = i } in
              let lbl =
                if fp then
                  { (Porlabel.write ~tid:i loc) with
                    alloc = true;
                    cert_write = [ Loc.base loc ] }
                else dummy_fp
              in
              commit ts (m :: st.mem) (ts + 1) t.promises lbl
            in
            append :: fulfills
        | Instr.Faa (r, a, e, ord) ->
            let loc, va = Expr.eval_addr (lookup_reg t.regs) a in
            let delta, vd = Expr.eval_v (lookup_reg t.regs) e in
            rmw_step ~fp st init_val i t rest ~loc ~va ~vd ~ord ~dst:r
              ~new_value:(fun old -> Some (old + delta))
        | Instr.Xchg (r, a, e, ord) ->
            let loc, va = Expr.eval_addr (lookup_reg t.regs) a in
            let v, vd = Expr.eval_v (lookup_reg t.regs) e in
            rmw_step ~fp st init_val i t rest ~loc ~va ~vd ~ord ~dst:r
              ~new_value:(fun _ -> Some v)
        | Instr.Cas (r, a, expected, desired, ord) ->
            let loc, va = Expr.eval_addr (lookup_reg t.regs) a in
            let exp_v, ve = Expr.eval_v (lookup_reg t.regs) expected in
            let des_v, vd0 = Expr.eval_v (lookup_reg t.regs) desired in
            rmw_step ~fp st init_val i t rest ~loc ~va ~vd:(max ve vd0) ~ord
              ~dst:r
              ~new_value:(fun old -> if old = exp_v then Some des_v else None)
        | Instr.If (cond, br_then, br_else) ->
            let b, vc = Expr.eval_b (lookup_reg t.regs) cond in
            let code = (if b then br_then else br_else) @ rest in
            [ Next
                ( set_thread st i { t with code; vctrl = max t.vctrl vc },
                  quiet_lbl () ) ]
        | Instr.While (cond, body) ->
            let b, vc = Expr.eval_b (lookup_reg t.regs) cond in
            let t = { t with vctrl = max t.vctrl vc } in
            if not b then
              [ Next (set_thread st i { t with code = rest }, quiet_lbl ()) ]
            else if t.fuel <= 0 then [ Fuel_out ]
            else
              [ Next
                  ( set_thread st i
                      { t with
                        code = body @ (Instr.While (cond, body) :: rest);
                        fuel = t.fuel - 1 },
                    quiet_lbl () ) ]
      with Expr.Eval_panic _ -> raise Thread_panic)

(* Human-readable label for the transition [st] -> [st'] taken by thread
   [i] executing [instr]. Loads/stores are annotated with the concrete
   location, value, and message timestamp so witness schedules read like
   the paper's execution diagrams. *)
let describe_step (st : state) (st' : state) (i : int) (instr : Instr.t) :
    string =
  let t = st.threads.(i) and t' = st'.threads.(i) in
  let reg_val r =
    match Reg.Map.find_opt r t'.regs with Some (v, _) -> v | None -> 0
  in
  match instr with
  | Instr.Load (r, a, ord) ->
      let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
      Format.asprintf "%s := [%a]  (reads %d%s)" (Reg.name r) Loc.pp loc
        (reg_val r)
        (match ord with Instr.Acquire -> ", acquire" | _ -> "")
  | Instr.Store (a, _, ord) ->
      let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
      let fulfilled = List.length t'.promises < List.length t.promises in
      let m =
        List.find_opt (fun m -> Loc.equal m.mloc loc && m.wtid = i) st'.mem
      in
      Format.asprintf "[%a] := %d%s%s" Loc.pp loc
        (match m with Some m -> m.mval | None -> 0)
        (match ord with Instr.Release -> "  (release)" | _ -> "")
        (if fulfilled then "  (fulfils an earlier promise)" else "")
  | Instr.Faa (r, a, _, _) ->
      let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
      Format.asprintf "fetch-add [%a] (read %d)" Loc.pp loc (reg_val r)
  | Instr.Xchg (r, a, _, _) ->
      let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
      Format.asprintf "exchange [%a] (read %d)" Loc.pp loc (reg_val r)
  | Instr.Cas (r, a, _, _, _) ->
      let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
      Format.asprintf "cas [%a] (read %d)" Loc.pp loc (reg_val r)
  | Instr.Barrier b ->
      Format.asprintf "%s"
        (match b with
        | Instr.Dmb_full -> "dmb ish"
        | Instr.Dmb_ld -> "dmb ishld"
        | Instr.Dmb_st -> "dmb ishst"
        | Instr.Isb -> "isb")
  | Instr.Move (r, _) -> Format.asprintf "%s := <expr>" (Reg.name r)
  | Instr.If _ -> "branch"
  | Instr.While _ -> "loop check"
  | Instr.Pull bs -> Format.asprintf "pull {%s}" (String.concat "," bs)
  | Instr.Push bs -> Format.asprintf "push {%s}" (String.concat "," bs)
  | Instr.Tlbi _ -> "tlbi"
  | Instr.Panic -> "panic"
  | Instr.Nop -> "nop"

(* ------------------------------------------------------------------ *)
(* State keys                                                          *)
(* ------------------------------------------------------------------ *)
(* One canonical encoder for shared memory ([hash_mem]) and one for a
   thread's state ([hash_thread], cached per thread as [tkeys]); the
   full-state key, the orbit-canonical key and the per-thread
   solo-exploration key all reuse the cached thread prefixes rather
   than rehashing any thread's remaining code. *)

let subkey k = Statekey.finish (Lazy.force k)


let hash_mem h (st : state) =
  Statekey.int h st.next_ts;
  List.iter
    (fun m ->
      Statekey.loc h m.mloc;
      Statekey.int h m.mval;
      Statekey.int h m.ts;
      Statekey.int h m.wtid)
    st.mem

let state_key (st : state) : Statekey.t =
  let h = Statekey.fresh () in
  hash_mem h st;
  Array.iter (fun k -> Statekey.absorb h (subkey k)) st.tkeys;
  Statekey.finish h

(* Orbit-canonical key. Unlike SC/TSO, part of a Promising thread's
   identity lives in {e shared} memory: messages carry the writer's
   thread index [wtid]. Permuting threads i and j maps a state to one
   where their local states are swapped {e and} every [wtid = i]
   becomes [j] (and vice versa), so canonicalization must do the same:

   - the per-thread sub-key covers the thread's local state {e plus}
     the (loc, val, ts) triples of the messages it wrote — two threads
     with identical views but different written-message histories are
     distinguishable (a later promise by one of them certifies
     differently) and must not collapse;
   - the canonical hash relabels each message's [wtid] through the
     orbit rank and hashes threads in orbit order, so both sides of the
     ownership relation are permuted consistently.

   Timestamps themselves are global (positions in the append-only
   memory) and permutation-invariant — they are never remapped.

   Each sub-key extends a copy of the thread's cached prefix, so it has
   exactly the value of a fresh [hash_thread] stream extended by the
   written messages: the sort order, which picks the orbit
   representative (and the [sym_collapsed] count), does not depend on
   the caching. *)
let canonical_key sym (st : state) : Statekey.t =
  let sub =
    Array.mapi
      (fun i k ->
        let h = Statekey.copy (Lazy.force k) in
        List.iter
          (fun m ->
            if m.wtid = i then begin
              Statekey.loc h m.mloc;
              Statekey.int h m.mval;
              Statekey.int h m.ts
            end)
          st.mem;
        Statekey.finish h)
      st.tkeys
  in
  let ord = Symmetry.order sym sub in
  let rank = Symmetry.inverse ord in
  let h = Statekey.fresh () in
  Statekey.int h st.next_ts;
  List.iter
    (fun m ->
      Statekey.loc h m.mloc;
      Statekey.int h m.mval;
      Statekey.int h m.ts;
      Statekey.int h (if m.wtid < 0 then m.wtid else rank.(m.wtid)))
    st.mem;
  Array.iter (fun i -> Statekey.absorb h sub.(i)) ord;
  Statekey.finish h

(* key for thread [i]'s solo exploration: shared memory + that thread *)
let thread_key (st : state) i : Statekey.t =
  let h = Statekey.fresh () in
  hash_mem h st;
  Statekey.absorb h (subkey st.tkeys.(i));
  Statekey.finish h

(* ------------------------------------------------------------------ *)
(* Certification and promise candidates                                *)
(* ------------------------------------------------------------------ *)

(* Solo-run transitions of thread [i]: the architectural steps only (a
   solo run never promises), with panicking paths absorbed — shared
   between certification and the candidate generator. *)
let solo_steps st init_val i =
  try step_thread st init_val i with Thread_panic -> []

(* Store bases syntactically reachable in [code], recursing into branch
   and loop bodies. [Expr.eval_addr] always yields a location on the
   address expression's [abase], so this footprint over-approximates the
   locations any solo run can write: promises are fulfilled by [Store]
   only, hence a promise on a base outside the footprint can never be
   fulfilled, and a footprint-free thread has no promise candidates at
   all. Both prunes are verdict-preserving — they only skip solo
   searches whose outcome is already forced. *)
let rec store_bases acc = function
  | [] -> acc
  | instr :: rest ->
      let acc =
        match instr with
        | Instr.Store (a, _, _) ->
            let b = a.Expr.abase in
            if List.mem b acc then acc else b :: acc
        | Instr.If (_, br_then, br_else) ->
            store_bases (store_bases acc br_then) br_else
        | Instr.While (_, body) -> store_bases acc body
        | _ -> acc
      in
      store_bases acc rest

(** Can thread [i], running solo (no new promises), reach a state with all
    its promises fulfilled, within [depth] steps? *)
let certifiable cfg st init_val i =
  let t0 = st.threads.(i) in
  if t0.promises = [] then true
  else
    let bases = store_bases [] t0.code in
    let fulfillable p =
      match List.find_opt (fun m -> m.ts = p && m.wtid = i) st.mem with
      | Some m -> List.mem (Loc.base m.mloc) bases
      | None -> false
    in
    if not (List.for_all fulfillable t0.promises) then false
    else
      let rec go st depth =
        let t = st.threads.(i) in
        if t.promises = [] then true
        else if depth <= 0 || t.code = [] then false
        else
          List.exists
            (function
              | Next (st', _) -> go st' (depth - 1)
              | Fuel_out | Stuck -> false)
            (solo_steps st init_val i)
      in
      go st cfg.cert_depth

(** Store values thread [i] may produce along some solo run: the candidate
    set for promises. Over-approximate; certification filters. *)
let solo_write_candidates cfg st init_val i =
  if store_bases [] st.threads.(i).code = [] then []
  else begin
    let found = Hashtbl.create 16 in
    let seen = Statekey.Table.create ~initial:256 ~dummy:() () in
    let rec go st depth =
      if depth <= 0 then ()
      else
        let k = thread_key st i in
        match Statekey.Table.find_or_add seen k () with
        | `Found () -> ()
        | `Added -> begin
            let t = st.threads.(i) in
          match t.code with
          | [] -> ()
          | instr :: _ ->
              (match instr with
              | Instr.Store (a, e, _) -> (
                  try
                    let loc, _ = Expr.eval_addr (lookup_reg t.regs) a in
                    let v, _ = Expr.eval_v (lookup_reg t.regs) e in
                    Hashtbl.replace found (loc, v) ()
                  with Expr.Eval_panic _ -> ())
              | _ -> ());
              List.iter
                (function
                  | Next (st', _) -> go st' (depth - 1)
                  | Fuel_out | Stuck -> ())
                (solo_steps st init_val i)
        end
    in
    go st cfg.cert_depth;
    Hashtbl.fold (fun k () acc -> k :: acc) found []
  end

(* ------------------------------------------------------------------ *)
(* Certification memoization                                           *)
(* ------------------------------------------------------------------ *)

(* All bases thread code can address, recursing into branches and loops:
   [Expr.eval_addr] always lands on the address expression's static
   [abase], so a solo run can only ever read or write locations on these
   bases. *)
let rec access_bases acc = function
  | [] -> acc
  | instr :: rest ->
      let add (a : Expr.aexp) acc =
        let b = a.Expr.abase in
        if List.mem b acc then acc else b :: acc
      in
      let acc =
        match instr with
        | Instr.Load (_, a, _) | Instr.Store (a, _, _)
        | Instr.Faa (_, a, _, _) | Instr.Xchg (_, a, _, _)
        | Instr.Cas (_, a, _, _, _) ->
            add a acc
        | Instr.If (_, br_then, br_else) ->
            access_bases (access_bases acc br_then) br_else
        | Instr.While (_, body) -> access_bases acc body
        | _ -> acc
      in
      access_bases acc rest

(* Timestamp ranks for [cert_key]: the noted values sorted and
   deduplicated into the prefix [0, n) of one array, a value's rank
   being its index there (found by binary search). *)
let rank_map (vs : int list) : int array * int =
  let a = Array.of_list vs in
  Array.sort Int.compare a;
  let n = ref 0 in
  for k = 0 to Array.length a - 1 do
    if !n = 0 || a.(!n - 1) <> a.(k) then begin
      a.(!n) <- a.(k);
      incr n
    end
  done;
  (a, !n)

let rank_of ((a, n) : int array * int) v =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    if lo > hi then raise Not_found
    else if a.(mid) = v then mid
    else if a.(mid) < v then search (mid + 1) hi
    else search lo (mid - 1)
  in
  search 0 (n - 1)

(* The memo key is a {e canonical projection} of the state onto what a
   solo run of thread [i] can observe. [certifiable]'s verdict is
   invariant under four quotients, and the key hashes the quotient class
   rather than the raw state so every member shares one cache slot:

   - {b footprint}: the solo run only evaluates addresses on the static
     bases of thread [i]'s remaining code, so messages (and coherence
     entries) on other bases are dropped;
   - {b timestamp renaming}: the semantics compares timestamps only by
     order ([<=]/[max]) and fresh timestamps are allocated above every
     existing one, so each timestamp is replaced by its rank within the
     set of timestamps the run can compare (footprint messages, views,
     register views, coherence entries, promises);
   - {b promise ownership}: {!rmw_step} refuses the coherence-latest
     message when {e some} thread holds it as a promise, never caring
     which — other threads collapse to one promised-by-other bit per
     footprint message;
   - {b thread identity}: fulfillment only tests [m.wtid = i], hashed as
     a mine/theirs bit, so structurally equal certification problems on
     different threads share a slot.

   [next_ts] and [promise_budget] are excluded: a solo run never
   promises, and fresh timestamps sit above every ranked one in any
   member of the class. *)
let cert_key (st : state) i : Statekey.t =
  let t = st.threads.(i) in
  let bases = access_bases [] t.code in
  let msgs =
    List.filter (fun m -> List.mem (Loc.base m.mloc) bases) st.mem
  in
  let ts = ref [ 0 ] in
  let note v = ts := v :: !ts in
  List.iter (fun m -> note m.ts) msgs;
  Loc.Map.iter
    (fun loc v -> if List.mem (Loc.base loc) bases then note v)
    t.coh;
  List.iter note
    [ t.vrnew; t.vwnew; t.vctrl; t.vrmax; t.vwmax; t.vall; t.vrel ];
  Reg.Map.iter (fun _ (_, w) -> note w) t.regs;
  List.iter note t.promises;
  let ranks = rank_map !ts in
  let rank v = rank_of ranks v in
  let h = Statekey.fresh () in
  Statekey.char h 'C';
  Statekey.instrs h t.code;
  Statekey.int h t.fuel;
  Statekey.int h (Reg.Map.cardinal t.regs);
  Reg.Map.iter
    (fun r (v, w) ->
      Statekey.str h (Reg.name r);
      Statekey.int h v;
      Statekey.int h (rank w))
    t.regs;
  Loc.Map.iter
    (fun loc v ->
      if List.mem (Loc.base loc) bases then begin
        Statekey.loc h loc;
        Statekey.int h (rank v)
      end)
    t.coh;
  List.iter
    (fun v -> Statekey.int h (rank v))
    [ t.vrnew; t.vwnew; t.vctrl; t.vrmax; t.vwmax; t.vall; t.vrel ];
  Statekey.char h 'p';
  List.iter (Statekey.int h)
    (List.sort compare (List.map rank t.promises));
  Statekey.char h 'M';
  let others_promises = ref [] in
  Array.iteri
    (fun j th ->
      if j <> i && th.promises <> [] then
        others_promises := th.promises @ !others_promises)
    st.threads;
  List.iter
    (fun m ->
      Statekey.loc h m.mloc;
      Statekey.int h m.mval;
      Statekey.int h (rank m.ts);
      Statekey.int h (if m.wtid = i then 1 else 0);
      Statekey.int h (if List.mem m.ts !others_promises then 1 else 0))
    msgs;
  Statekey.finish h

(* Per-exploration verdict cache. Values: 0 = slot reserved but not yet
   computed (another domain may recompute — duplicated work, never a
   wrong answer), 1 = not certifiable, 2 = certifiable. Mutex-guarded:
   the cache lives in the model context, which parallel exploration
   shares across domains. Call/hit counters are [Atomic] so the run
   wrappers can fold them into {!Engine.stats} afterwards. *)
type cert_cache = {
  cc_lock : Mutex.t;
  cc_tbl : int Statekey.Table.t;
  cc_calls : int Atomic.t;
  cc_hits : int Atomic.t;
}

let make_cert_cache () =
  { cc_lock = Mutex.create ();
    cc_tbl = Statekey.Table.create ~dummy:0 ();
    cc_calls = Atomic.make 0;
    cc_hits = Atomic.make 0 }

(* Memoized entry point. Only full-budget queries land here (every
   caller asks with the uniform [cfg.cert_depth]), so the verdict is a
   function of the key alone. Promise-free states short-circuit without
   touching the cache — they are trivially certified and would only
   dilute the hit-rate statistic. *)
let certifiable_cached cache cfg st init_val i =
  if st.threads.(i).promises = [] then true
  else
    match cache with
    | None -> certifiable cfg st init_val i
    | Some c -> (
        Atomic.incr c.cc_calls;
        let k = cert_key st i in
        Mutex.lock c.cc_lock;
        let prior =
          match Statekey.Table.find_or_add c.cc_tbl k 0 with
          | `Added -> 0
          | `Found v -> v
        in
        Mutex.unlock c.cc_lock;
        match prior with
        | 2 ->
            Atomic.incr c.cc_hits;
            true
        | 1 ->
            Atomic.incr c.cc_hits;
            false
        | _ ->
            let verdict = certifiable cfg st init_val i in
            Mutex.lock c.cc_lock;
            Statekey.Table.update c.cc_tbl k (if verdict then 2 else 1);
            Mutex.unlock c.cc_lock;
            verdict)

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration                                              *)
(* ------------------------------------------------------------------ *)

let initial_state cfg (prog : Prog.t) : state =
  let mem =
    List.mapi
      (fun idx (l, v) ->
        ignore idx;
        { mloc = l; mval = v; ts = 0; wtid = -1 })
      prog.Prog.init
  in
  let threads =
    Array.of_list
      (List.map
         (fun th ->
           { code = th.Prog.code;
             regs = Reg.Map.empty;
             coh = Loc.Map.empty;
             vrnew = 0;
             vwnew = 0;
             vctrl = 0;
             vrmax = 0;
             vwmax = 0;
             vall = 0;
             vrel = 0;
             fuel = cfg.loop_fuel;
             promise_budget = cfg.max_promises;
             promises = [] })
         prog.Prog.threads)
  in
  { mem; next_ts = 1; threads;
    tkeys = Array.map (fun t -> lazy (thread_prefix t)) threads }

let observe (prog : Prog.t) (st : state) init_val status : Behavior.outcome =
  let value = function
    | Prog.Obs_reg (tid, r) ->
        let idx =
          match
            List.find_index (fun th -> th.Prog.tid = tid) prog.Prog.threads
          with
          | Some i -> i
          | None -> invalid_arg "observe: unknown tid"
        in
        fst (lookup_reg st.threads.(idx).regs r)
    | Prog.Obs_loc l ->
        (* value of the coherence-final message on l *)
        let msgs =
          List.filter (fun m -> Loc.equal m.mloc l) st.mem
        in
        List.fold_left
          (fun (bts, bv) m -> if m.ts > bts then (m.ts, m.mval) else (bts, bv))
          (0, init_val l) msgs
        |> snd
  in
  Behavior.outcome ~status
    (List.map (fun obs -> (obs, value obs)) prog.Prog.observables)

(* is register [r] of thread index [idx] observable? *)
let observable_reg (prog : Prog.t) idx r =
  match List.nth_opt prog.Prog.threads idx with
  | Some th ->
      List.exists
        (function
          | Prog.Obs_reg (tid, r') ->
              tid = th.Prog.tid && Reg.name r' = Reg.name r
          | Prog.Obs_loc _ -> false)
        prog.Prog.observables
  | None -> false

(* The executor is an instance of the shared exploration engine. Per
   runnable thread, the expansion offers the architectural steps (several
   for a load: one per readable message) followed by the certified promise
   steps; terminal states record an outcome only when every promise has
   been fulfilled; under [strict_certification] uncertifiable states are
   pruned. The transition sequence is lazy, so certification work for a
   thread is only done once the previous threads' subtrees are explored
   (materialized eagerly when the POR oracle is active).

   POR labels: every step carries a {!Porlabel} footprint. Promise and
   fulfil steps record the affected base in [cert_write] (they change the
   promise set other threads' RMW enabledness and certification verdicts
   consult), promise steps record the promising thread's whole
   [access_bases] footprint in [cert_read] (the candidate set and the
   certification verdict read that history), and both promise and
   append-store steps set [alloc] (they take the next global timestamp).
   A thread's architectural step may only claim the singleton-ample
   property when the thread cannot also promise ([silent_ok]); the
   engine's side conditions do the rest.

   Under [strict_certification] the POR oracle is {e unsound}: pruned
   mid-path states may be certification-dead ([Terminal None]), which
   breaks the commutation diamond (the explored order can die where the
   pruned order survives). The run wrappers force [por:false] there. *)
module Model = struct
  type ctx = {
    prog : Prog.t;
    cfg : config;
    cache : cert_cache option;
        (** certification memo, shared across domains (internally
            mutex-guarded); [None] when [cfg.cert_cache] is off *)
    sym : Symmetry.t option;
        (** thread-symmetry structure for orbit-canonical keys; [None]
            when disabled, no groups exist, or [strict_certification]
            forces exact keying (mirroring the POR valve) *)
  }

  type nonrec state = state

  (* The POR footprint alone: its [disc] fields keep the labels of one
     thread's enabled transitions distinct (engine requirement), which
     is also what lets {!run_full} replay a recorded label path and
     render its witness text after the search. *)
  type label = Porlabel.t

  let key ctx st =
    match ctx.sym with
    | None -> state_key st
    | Some s -> canonical_key s st

  let independent = Some (fun _ctx a b -> Porlabel.independent a b)
  let ample = Some (fun _ctx l -> Porlabel.ample l)

  let sleepable ctx l =
    match ctx.sym with
    | None -> true
    | Some s -> not (Symmetry.grouped s l.Porlabel.tid)

  (* Outgoing transitions of thread [i] alone: its architectural steps
     (several for a load: one per readable message) followed, unless
     [promises] is false, by its certified promise steps. Witness replay
     enumerates only the moving thread's transitions through this. *)
  let thread_steps ?(promises = true) { prog; cfg; cache; sym = _ } ~labels
      (st : state) i : (state, label) Engine.step Seq.t =
    let init_val loc = Prog.init_value prog loc in
    let t = st.threads.(i) in
    if t.code = [] then Seq.empty
    else
      (* can this thread take a promise step here? (cheap syntactic
         over-approximation: budget left and a store in its code) *)
      let may_promise =
        t.promise_budget > 0 && store_bases [] t.code <> []
      in
      let with_promises = promises in
      (* ordinary architectural steps *)
      let arch () =
        (match
           step_thread ~fp:labels ~silent_ok:(not may_promise)
             ~obs:(observable_reg prog i) st init_val i
         with
        | steps ->
            List.to_seq steps
            |> Seq.filter_map (function
                 | Next (st', fp) -> Some (Engine.Step (fp, st'))
                 | Fuel_out ->
                     Some
                       (Engine.Emit
                          (observe prog st init_val
                             Behavior.Fuel_exhausted))
                 | Stuck -> None)
        | exception Thread_panic ->
            Seq.return
              (Engine.Emit (observe prog st init_val Behavior.Panicked)))
          ()
      in
      (* promise steps: candidates from a solo run, kept only when the
         promising thread can still certify. Candidates are sorted so
         the label discriminator (index) is stable across independent
         other-thread moves. *)
      let promises () =
        if not (may_promise && with_promises) then Seq.Nil
        else
          let cands =
            List.sort compare (solo_write_candidates cfg st init_val i)
          in
          let cert_read =
            if labels then access_bases [] t.code else []
          in
          (List.to_seq cands
          |> Seq.mapi (fun idx cand -> (idx, cand))
          |> Seq.filter_map (fun (idx, (loc, v)) ->
                 let ts = st.next_ts in
                 let m = { mloc = loc; mval = v; ts; wtid = i } in
                 let t' =
                   { t with
                     promises = ts :: t.promises;
                     promise_budget = t.promise_budget - 1 }
                 in
                 let st' =
                   set_thread
                     { st with mem = m :: st.mem; next_ts = ts + 1 }
                     i t'
                 in
                 if certifiable_cached cache cfg st' init_val i then
                   let fp =
                     if labels then
                       { (Porlabel.write ~tid:i loc) with
                         alloc = true;
                         cert_write = [ Loc.base loc ];
                         cert_read;
                         disc = idx }
                     else dummy_fp
                   in
                   Some (Engine.Step (fp, st'))
                 else None))
            ()
      in
      Seq.append arch promises

  let expand ({ prog; cfg; cache; sym = _ } as ctx) ~labels
      (st : state) :
      (state, label) Engine.expansion =
    let init_val loc = Prog.init_value prog loc in
    let n = Array.length st.threads in
    let certified_everywhere =
      (not cfg.strict_certification)
      || Array.for_all (fun t -> t.promises = []) st.threads
      ||
      let ok = ref true in
      for i = 0 to n - 1 do
        if st.threads.(i).promises <> []
           && not (certifiable_cached cache cfg st init_val i)
        then ok := false
      done;
      !ok
    in
    if not certified_everywhere then Engine.Terminal None
    else if Array.for_all (fun t -> t.code = []) st.threads then
      if Array.for_all (fun t -> t.promises = []) st.threads then
        Engine.Terminal (Some (observe prog st init_val Behavior.Normal))
      else Engine.Terminal None
    else
      Engine.Steps
        (Seq.concat_map (thread_steps ctx ~labels st)
           (Seq.take n (Seq.ints 0)))
end

module E = Engine.Make (Model)

let make_ctx ?(sym = true) prog cfg =
  { Model.prog;
    cfg;
    cache = (if cfg.cert_cache then Some (make_cert_cache ()) else None);
    (* Symmetry mirrors the POR valve: under strict certification the
       engine prunes certification-dead states mid-path, and an orbit
       representative may die where its permuted twin's concrete path
       would have survived a different certification-check order — keep
       exact keys there. *)
    sym =
      (if sym && not cfg.strict_certification then Symmetry.detect prog
       else None) }

(* POR is sound here only without strict certification: strict mode
   prunes mid-path states as [Terminal None], which breaks the sleep-set
   commutation diamond (see the Model comment). *)
let por_for cfg por =
  if cfg.strict_certification then Some false else por

(* Fold the context's certification counters into the engine's stats
   (the engine itself knows nothing about certification). *)
let with_cert_stats (ctx : Model.ctx) (s : Engine.stats) : Engine.stats =
  let s =
    match ctx.Model.cache with
    | None -> s
    | Some c ->
        { s with
          Engine.cert_calls = Atomic.get c.cc_calls;
          cert_hits = Atomic.get c.cc_hits }
  in
  match ctx.Model.sym with
  | None -> s
  | Some sy ->
      { s with
        Engine.sym_groups = Symmetry.n_groups sy;
        sym_collapsed = Symmetry.collapsed sy }

(* Witness text is rendered after the search, for the few schedules
   kept, instead of formatted on every transition: [render_schedule]
   replays a recorded label path from the initial state. At each state
   exactly one successor carries the recorded footprint — labels of a
   state's enabled transitions are distinct, the engine's own sleep-set
   requirement — and replay fails loudly on zero or several matches
   rather than skip a step. Every promise footprint sets [alloc], so a
   label without it can only match an architectural step and replay
   skips the thread's promise candidates there. A step that grows the
   thread's promise list is a promise; every other step renders through
   [describe_step]. *)
let render_schedule (ctx : Model.ctx) init path : step list =
  let tids =
    Array.of_list
      (List.map (fun th -> th.Prog.tid) ctx.Model.prog.Prog.threads)
  in
  let succ st (l : Porlabel.t) =
    Model.thread_steps ~promises:l.Porlabel.alloc ctx ~labels:true st
      l.Porlabel.tid
    |> Seq.filter_map (function
         | Engine.Step (l', st') when l' = l -> Some st'
         | _ -> None)
    |> List.of_seq
  in
  let render st st' i =
    let t = st.threads.(i) and t' = st'.threads.(i) in
    if List.length t'.promises > List.length t.promises then
      let m = List.hd st'.mem in
      Format.asprintf "promises [%a] := %d" Loc.pp m.mloc m.mval
    else describe_step st st' i (List.hd t.code)
  in
  let rec go st acc k = function
    | [] -> List.rev acc
    | (l : Porlabel.t) :: rest -> (
        match succ st l with
        | [ st' ] ->
            let i = l.Porlabel.tid in
            go st' ({ s_tid = tids.(i); s_what = render st st' i } :: acc)
              (k + 1) rest
        | matches ->
            failwith
              (Printf.sprintf
                 "Promising.run_full: witness replay of %s diverged at step \
                  %d (%d successors match the recorded label)"
                 ctx.Model.prog.Prog.name k (List.length matches)))
  in
  go init [] 0 path

(** [run_full ?config ?jobs prog] explores all Promising Arm executions
    of [prog] and returns the behavior set, the per-outcome witness
    schedules, and the exploration statistics. [por] (default on)
    applies partial-order reduction — same behavior set, fewer states;
    it is forced off under [strict_certification] where it would be
    unsound. *)
let run_full ?(config = default_config) ?(jobs = 1) ?deadline ?por ?sym
    (prog : Prog.t) :
    Behavior.t * (Behavior.outcome * step list) list * Engine.stats =
  let ctx = make_ctx ?sym prog config in
  let init = initial_state config prog in
  let r =
    E.explore ~max_states:config.max_states ?deadline
      ?por:(por_for config por) ~witnesses:true ~jobs ~ctx init
  in
  (* read the certification counters before replay consults the cache *)
  let stats = with_cert_stats ctx r.E.stats in
  let witnesses =
    List.map (fun (o, ls) -> (o, render_schedule ctx init ls)) r.E.witnesses
  in
  (r.E.behaviors, witnesses, stats)

(** [run_with_witnesses ?config ?jobs prog] explores all Promising Arm
    executions of [prog] and additionally returns, for each distinct
    outcome, the first schedule (sequence of per-CPU steps, including
    promises) that produced it. *)
let run_with_witnesses ?config ?jobs ?deadline ?por ?sym (prog : Prog.t) :
    Behavior.t * (Behavior.outcome * step list) list =
  let behaviors, witnesses, _ =
    run_full ?config ?jobs ?deadline ?por ?sym prog
  in
  (behaviors, witnesses)

(** [run_stats ?config ?jobs prog] explores all Promising Arm executions
    of [prog] and returns the behavior set with exploration statistics
    (witness bookkeeping off). *)
let run_stats ?(config = default_config) ?(jobs = 1) ?deadline ?por ?sym
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let ctx = make_ctx ?sym prog config in
  let r =
    E.explore ~max_states:config.max_states ?deadline
      ?por:(por_for config por) ~jobs ~ctx
      (initial_state config prog)
  in
  (r.E.behaviors, with_cert_stats ctx r.E.stats)

(** [run ?config ?jobs prog] explores all Promising Arm executions of
    [prog] (bounded by the configuration) and returns its behavior set. *)
let run ?config ?jobs ?deadline ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?config ?jobs ?deadline ?por ?sym prog)

(* ------------------------------------------------------------------ *)
(* Sub-key self-check                                                  *)
(* ------------------------------------------------------------------ *)

(* Breadth-first sample of up to 512 distinct states reachable in
   [prog], the input of {!check_subkeys}. *)
let sample_states config (prog : Prog.t) : state array =
  let ctx = make_ctx prog config in
  let sample = ref [] in
  let seen = Statekey.Table.create ~dummy:() () in
  let q = Queue.create () in
  Queue.add (initial_state config prog) q;
  while (not (Queue.is_empty q)) && Statekey.Table.length seen < 512 do
    let st = Queue.pop q in
    match Statekey.Table.find_or_add seen (state_key st) () with
    | `Found () -> ()
    | `Added -> (
        sample := st :: !sample;
        match Model.expand ctx ~labels:false st with
        | Engine.Terminal _ -> ()
        | Engine.Steps steps ->
            Seq.iter
              (function
                | Engine.Step (_, st') -> Queue.add st' q
                | Engine.Emit _ -> ())
              steps)
  done;
  Array.of_list !sample

(** [check_subkeys ?config prog] checks the cached per-thread sub-keys
    of every sampled state against a from-scratch recomputation that
    hashes every thread: the state key, the orbit-canonical key (when
    [prog] has symmetric threads) and each thread's solo key must all
    agree. Returns the number of states checked. *)
let check_subkeys ?(config = default_config) (prog : Prog.t) : int =
  let states = sample_states config prog in
  let sym = Symmetry.detect prog in
  Array.iter
    (fun st ->
      let fresh =
        { st with
          tkeys =
            Array.map (fun t -> Lazy.from_val (thread_prefix t)) st.threads
        }
      in
      let same what key =
        if not (Statekey.equal (key st) (key fresh)) then
          failwith
            (Printf.sprintf
               "Promising.check_subkeys: %s: cached %s key differs from \
                the recomputed one"
               prog.Prog.name what)
      in
      same "state" state_key;
      Option.iter (fun s -> same "canonical" (canonical_key s)) sym;
      Array.iteri
        (fun i _ ->
          same (Printf.sprintf "thread %d" i) (fun st -> thread_key st i))
        st.threads)
    states;
  Array.length states
