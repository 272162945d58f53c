(* What every workload receives from the command line. *)

type t = {
  seed : int;
  seconds : float;
  trace : Spans.t;
  out_dir : string;  (** scratch directory inside the checkout *)
  vrm_cli : string;  (** the vrm-cli executable, for the daemon *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Run [f] [n] times, keep the last result, report the median wall
   time: set-up is timed several times so one slow start does not set
   the figure. *)
let setup_median ~n f =
  let times = Array.make n 0. in
  let last = ref None in
  for i = 0 to n - 1 do
    let v, dt = time f in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, Pstats.median times)

(* Per-span recording cost, for the traced run's overhead estimate. *)
let span_cost_s () =
  let probe = Spans.create ~enabled:true in
  let n = 20_000 in
  let _, dt =
    time (fun () ->
        for i = 1 to n do
          Spans.with_span probe ~req:i "probe" (fun _ -> ())
        done)
  in
  dt /. float n

(* Run whole sweeps, [f k] running sweep [k]: at least [min_sweeps],
   then as many more as are expected to end within [seconds], judged
   by the mean sweep so far. Every sweep covers the same inputs, so
   statistics over whole sweeps do not depend on where time ran out. *)
let sweeps ~seconds ~min_sweeps f =
  let t_start = now () in
  let rec go k =
    f k;
    let elapsed = now () -. t_start in
    let mean = elapsed /. float (k + 1) in
    if k + 1 < min_sweeps || (elapsed +. mean <= seconds && elapsed < 3. *. seconds)
    then go (k + 1)
  in
  go 0
