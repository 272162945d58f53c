(* In-memory span recorder for the traced run. A span is one call
   into a layer, timed from the benchmark's side of the boundary:
   name, start, end, the span that caused it, and the request it
   belongs to. Spans are kept in memory and written out once, when
   the benchmark ends. With recording off, [with_span] only runs the
   body. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  req : int;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled =
  { enabled; lock = Mutex.create (); next = 0; spans = [] }

let enabled t = t.enabled

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let add t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* Record an interval measured elsewhere (an open-loop request is due
   before it is sent, so its span starts at the due time). *)
let record t ?(parent = -1) ~req name ~start ~stop =
  if t.enabled then begin
    let id = fresh_id t in
    add t { id; name; start; stop; parent; req };
    id
  end
  else -1

(* [f] receives the new span's id, for children to name as parent. *)
let with_span t ?(parent = -1) ~req name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    let finish () =
      add t { id; name; start; stop = Unix.gettimeofday (); parent; req }
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = List.rev t.spans
let count t = List.length t.spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. Children of
   one parent may overlap (two connections in flight), so covered time
   is a union, not a sum. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover. *)
let self_times (all : span list) : (span * float) list =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    all;
  List.map
    (fun s ->
      let c = covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all kids s.id) in
      (s, duration s -. c))
    all

(* Total and self seconds per span name. *)
let by_name (all : span list) : (string * (int * float * float)) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, d, st =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. duration s, st +. self))
    (self_times all);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let total_duration all name =
  match List.assoc_opt name (by_name all) with
  | Some (_, d, _) -> d
  | None -> 0.

(* One JSON object per line, times relative to [t0]. *)
let write t ~t0 path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"parent\":%d,\"req\":%d}\n"
        s.id s.name (s.start -. t0) (s.stop -. t0) s.parent s.req)
    (spans t);
  close_out oc
