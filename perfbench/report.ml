(* Result assembly: the human-readable table (every metric by name,
   with its unit and sample count) and the one-line JSON result that
   ends standard output. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int option;  (** sample count behind a timing *)
}

type t = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable e2e : metric list;  (** the BENCHMARK.json end-to-end set *)
  mutable detail : metric list;  (** workload-native names, human table *)
  mutable layer : metric list;  (** per-layer set, traced run *)
}

let create workload =
  { workload; attempted = 0; failed = 0; wrong = 0; e2e = []; detail = [];
    layer = [] }

let m ?samples name value unit_ = { name; value; unit_; samples }
let add_e2e r x = r.e2e <- r.e2e @ [ x ]
let add_detail r x = r.detail <- r.detail @ [ x ]
let add_layer r x = r.layer <- r.layer @ [ x ]

(* The end-to-end set every workload reports. *)
let core_e2e r ~setup_s ~rss_mb ~throughput ~samples =
  add_e2e r (m "setup_s" setup_s "s");
  add_e2e r (m "peak_rss_mb" rss_mb "MB");
  add_e2e r (m ~samples "throughput_per_s" throughput "1/s")

(* Wrong verdicts and failed operations are reported on stderr as they
   happen, and counted. *)
let wrong r fmt =
  Printf.ksprintf
    (fun msg ->
      r.wrong <- r.wrong + 1;
      prerr_endline ("WRONG: " ^ msg))
    fmt

let failed r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      prerr_endline ("FAILED: " ^ msg))
    fmt

let correct r = r.wrong = 0

let ratio num den = if den = 0 then 0. else float num /. float den

(* Peak resident set of a process, in MB ([VmHWM] of /proc). *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d" (fun kb -> float kb /. 1024.)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-30s %16.6g %-10s%s\n" x.name x.value x.unit_
        (match x.samples with
        | Some n -> Printf.sprintf " (n=%d)" n
        | None -> ""))
    ms

(* The last line of standard output. [trace] selects the per-layer set
   instead of the end-to-end one. *)
let print r ~trace =
  Printf.printf "workload %s: attempted=%d failed=%d wrong=%d\n" r.workload
    r.attempted r.failed r.wrong;
  print_table "workload metrics:" r.detail;
  print_table "end-to-end metrics:" r.e2e;
  if trace then print_table "per-layer metrics (traced run):" r.layer;
  let ms = if trace then r.layer else r.e2e in
  let fields =
    List.map
      (fun x ->
        let v = if Float.is_finite x.value then x.value else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number v) x.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) r.attempted r.failed (String.concat ", " fields)
