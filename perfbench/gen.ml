(* Workload generation. Everything a run feeds the program is derived
   here from the workload seed, so one seed always yields the same
   certification order, the same program sweep and the same request
   schedule; the program under test only ever sees the generated
   inputs. *)

open Memmodel
module K = Sekvm.Kernel_progs

let rng ~seed salt = Random.State.make [| seed; salt |]

let shuffle st (a : 'a array) =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* certify                                                             *)
(* ------------------------------------------------------------------ *)

(* Sweep [k] certifies every KVM version once, in a seeded order. *)
let certify_sweep ~seed k : K.version array =
  shuffle (rng ~seed (1000 + k)) (Array.of_list K.versions)

(* ------------------------------------------------------------------ *)
(* bmc-decide                                                          *)
(* ------------------------------------------------------------------ *)

type bmc_kind =
  | Litmus_test of Litmus.t
  | Corpus_entry of K.entry
  | Writer_fan of int  (** writer count; exactly 3 coherent outcomes *)
  | Sym_stress of int

type bmc_prog = {
  b_name : string;
  b_prog : Prog.t;
  b_exempt : string list;
  b_owners : (string * int) list;
  b_kind : bmc_kind;
}

(* Programs outside the BMC fragment (panic, xchg/cas, trapping address
   arithmetic). The workload is pinned by name so that a later widening
   of the fragment does not silently change what the benchmark runs. *)
let outside_fragment =
  [ "example2-vmid-nobarrier"; "example2-vmid-linux-lock";
    "example7-user-to-kernel"; "gen_vmid"; "gen_vmid-nobarrier";
    "mcs-counter"; "mcs-handoff"; "mcs-handoff-nobarrier" ]

(* [n] writers store [value] to one location; one reader loads it
   twice. Coherence leaves exactly 3 outcomes for any [n]. *)
let writer_fan ~n ~value ~loc name =
  let x = Expr.at loc in
  let r0 = Reg.v "r0" and r1 = Reg.v "r1" in
  let writers =
    List.init n (fun i -> Prog.thread (i + 2) [ Instr.store x (Expr.c value) ])
  in
  let reader = Prog.thread 1 [ Instr.load r0 x; Instr.load r1 x ] in
  Prog.make ~name
    ~observables:[ Prog.Obs_reg (1, r0); Prog.Obs_reg (1, r1) ]
    (reader :: writers)

(* Family sizes are fixed so every seed costs the same; the seed picks
   each member's stored value, location and name. The sizes also shape
   the tail: four programs (the three bound-limited entries and the
   12-writer fan) are slower than everything else, then come five
   same-cost 5-thread sym-stress programs (one from the corpus), so the
   p90 of a sweep falls inside that group of equal costs rather than on
   the edge between two groups. *)
let writer_sizes = [ 6; 9; 12 ]
let sym_sizes = [ 3; 4; 5; 5; 5; 5 ]

let bmc_programs ~seed : bmc_prog array =
  let st = rng ~seed 2000 in
  let fixed =
    List.map
      (fun (t : Litmus.t) ->
        { b_name = t.Litmus.prog.Prog.name; b_prog = t.Litmus.prog;
          b_exempt = []; b_owners = []; b_kind = Litmus_test t })
      (Paper_examples.all @ Litmus_suite.all)
    @ List.map
        (fun (e : K.entry) ->
          { b_name = e.K.name; b_prog = e.K.prog; b_exempt = e.K.exempt;
            b_owners = e.K.initial_owners; b_kind = Corpus_entry e })
        (K.corpus @ K.buggy_corpus @ K.boundary_corpus @ K.lint_corpus
       @ K.sym_corpus)
    |> List.filter (fun p -> not (List.mem p.b_name outside_fragment))
  in
  let writers =
    List.map
      (fun n ->
        let value = 1 + Random.State.int st 99 in
        let loc = Printf.sprintf "w%d" (Random.State.int st 1000) in
        let name = Printf.sprintf "bmc-writers-%d-v%d-%s" n value loc in
        { b_name = name; b_prog = writer_fan ~n ~value ~loc name;
          b_exempt = []; b_owners = []; b_kind = Writer_fan n })
      writer_sizes
  in
  let syms =
    List.map
      (fun n ->
        let name = Printf.sprintf "sym-stress-%d-s%d" n (Random.State.int st 10000) in
        { b_name = name; b_prog = K.sym_stress_prog n name; b_exempt = [];
          b_owners = []; b_kind = Sym_stress n })
      sym_sizes
  in
  Array.of_list (fixed @ writers @ syms)

(* Sweep [k] decides every program once, in a seeded order. *)
let bmc_sweep ~seed k (progs : 'a array) : 'a array =
  shuffle (rng ~seed (3000 + k)) progs

(* ------------------------------------------------------------------ *)
(* vrmd-open: the open-loop request schedule                           *)
(* ------------------------------------------------------------------ *)

type req = {
  r_idx : int;
  r_rung : int;  (** index into the rate ladder *)
  r_window : int;  (** index of the measurement window *)
  r_due : float;  (** seconds after the start of the measured ladder *)
  r_cold : bool;  (** first touch of a cold key (bulk lane) *)
  r_key : int;  (** index into the warm keys, or into [cold_order] *)
}

(* Interleave the cold-key classes so every stretch of the run sees the
   same class mix: each class is shuffled, its members get evenly
   spaced virtual times with a seeded phase, and the merged order sorts
   by virtual time. Returns (class, member) pairs. *)
let cold_order ~seed (class_sizes : int array) : (int * int) array =
  let st = rng ~seed 4000 in
  let items = ref [] in
  Array.iteri
    (fun c size ->
      if size > 0 then begin
        let members = shuffle st (Array.init size Fun.id) in
        let phase = Random.State.float st 1. in
        Array.iteri
          (fun i m ->
            items := ((float i +. phase) /. float size, c, m) :: !items)
          members
      end)
    class_sizes;
  List.sort compare !items
  |> List.map (fun (_, c, m) -> (c, m))
  |> Array.of_list

(* The ladder is run [cycles] times over, one window of [window_s]
   seconds per rung and cycle, so each rate is sampled at several points
   spread over the run rather than in one stretch. Warm reads arrive as
   a Poisson stream at the window's rate. The [n_cold] cold first
   touches are spread evenly over the whole run, one per slot at a
   seeded point inside it, so every window sees the same cold rate and
   every run touches every cold key exactly once. Requests are returned
   in due order. *)
let vrmd_schedule ~seed ~rates ~cycles ~window_s ~n_warm ~n_cold : req array =
  let st = rng ~seed 5000 in
  let rungs = Array.length rates in
  let windows = cycles * rungs in
  let total = float windows *. window_s in
  let window_of due = min (windows - 1) (int_of_float (due /. window_s)) in
  let reqs = ref [] in
  for w = 0 to windows - 1 do
    let rung = w mod rungs and base = float w *. window_s in
    let gap () = -.log (1. -. Random.State.float st 1.) /. rates.(rung) in
    let t = ref (gap ()) in
    while !t < window_s do
      reqs :=
        { r_idx = 0; r_rung = rung; r_window = w; r_due = base +. !t;
          r_cold = false; r_key = Random.State.int st n_warm }
        :: !reqs;
      t := !t +. gap ()
    done
  done;
  let slot = total /. float (max 1 n_cold) in
  for k = 0 to n_cold - 1 do
    let due = (float k +. Random.State.float st 1.) *. slot in
    let w = window_of due in
    reqs :=
      { r_idx = 0; r_rung = w mod rungs; r_window = w; r_due = due;
        r_cold = true; r_key = k }
      :: !reqs
  done;
  List.sort (fun a b -> compare a.r_due b.r_due) !reqs
  |> List.mapi (fun i r -> { r with r_idx = i })
  |> Array.of_list
