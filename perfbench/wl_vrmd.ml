(* vrmd-open: an open loop at fixed arrival rates against a vrmd daemon
   running as its own process ([vrm-cli serve]). One generator process
   holds two connections: one carries warm reads of corpus jobs on the
   interactive lane, the other the first touch of each cold key on the
   bulk lane. Each request is timed from when it was due, so a stalled
   connection charges its wait to every request queued behind it. *)

open Memmodel
open Service
module K = Sekvm.Kernel_progs
module J = Cache.Json

(* ------------------------------------------------------------------ *)
(* Load parameters                                                     *)
(* ------------------------------------------------------------------ *)

(* Warm-read arrival rates of the ladder, requests per second; the
   first rung is "low", the last "high". The ladder runs [cycles] times
   over, one window per rung and cycle, so a noisy stretch of the run
   lands on every rate alike. Cold first touches come on top, at one
   constant rate over the whole run. *)
let rates = [| 110.; 220.; 440. |]
let cycles = 5

(* The p99 latency limit behind [max_rps_slo]: an answer within a
   quarter second still feels interactive at a prompt. *)
let slo_p99_ms = 250.

(* How long before a request is due the generator stops sleeping and
   polls instead. *)
let spin_s = 0.0005

(* A window's backlog is growing when, at its end, at least this many
   requests are due but unanswered and at least twice as many as at its
   midpoint; a rate has a growing backlog when most of its windows do. *)
let backlog_floor = 8

(* Explicit-engine litmus tests too heavy to count as small cold keys
   (~0.15 s per run with every reduction off). *)
let heavy_litmus = [ "example2-vmid-linux-lock" ]

(* Refinement entries too heavy to count as small (~0.5 s). *)
let heavy_refine = [ "read-outside-lock" ]

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

type target =
  | T_litmus of Litmus.t
  | T_bmc of Litmus.t
  | T_refine of K.entry

type key = {
  target : target;
  cert_cache : bool;
  por : bool;
  sym : bool;
}

let job_of k =
  match k.target with
  | T_litmus t | T_bmc t -> Protocol.Litmus t.Litmus.prog.Prog.name
  | T_refine e -> Protocol.Refine e.K.name

let backend_of k =
  match k.target with T_bmc _ -> Protocol.Bmc | _ -> Protocol.Explicit

(* (cert_cache, por, sym): the defaults, and each reduction turned off
   on its own *)
let default_flags = (true, true, true)
let variant_flags = [ (false, true, true); (true, false, true); (true, true, false) ]

let mk target (cert_cache, por, sym) = { target; cert_cache; por; sym }

let litmus_tests = Paper_examples.all @ Litmus_suite.all
let warm_entries = K.corpus @ K.buggy_corpus @ K.boundary_corpus

let warm_keys () =
  Array.of_list
    (List.map (fun t -> mk (T_litmus t) default_flags) litmus_tests
    @ List.map (fun e -> mk (T_refine e) default_flags) warm_entries)

(* Three classes of cold keys, each one a distinct cache key: explicit
   litmus jobs with one reduction turned off, BMC litmus jobs (default
   flags and without the certification cache), and small refinement
   entries with one reduction turned off, or with default flags for
   the entries the warm set leaves out. *)
let cold_classes () : key array array =
  let name (t : Litmus.t) = t.Litmus.prog.Prog.name in
  let litmus =
    List.filter (fun t -> not (List.mem (name t) heavy_litmus)) litmus_tests
    |> List.concat_map (fun t -> List.map (mk (T_litmus t)) variant_flags)
  in
  let bmc =
    List.filter
      (fun t -> not (List.mem (name t) Gen.outside_fragment))
      litmus_tests
    |> List.concat_map (fun t ->
           List.map (mk (T_bmc t)) [ default_flags; (false, true, true) ])
  in
  let refine =
    List.filter
      (fun (e : K.entry) -> not (List.mem e.K.name heavy_refine))
      (K.corpus @ K.buggy_corpus @ K.boundary_corpus @ K.lint_corpus)
    |> List.concat_map (fun (e : K.entry) ->
           let flags =
             if List.memq e warm_entries then variant_flags else [ default_flags ]
           in
           List.map (mk (T_refine e)) flags)
  in
  [| Array.of_list litmus; Array.of_list bmc; Array.of_list refine |]

(* ------------------------------------------------------------------ *)
(* Known answers: one direct in-process run per distinct program       *)
(* ------------------------------------------------------------------ *)

type answer =
  | A_litmus of Cache.Codec.litmus_summary
  | A_bmc of Cache.Codec.bmc_summary
  | A_refine of Cache.Codec.refine_summary * bool
      (** explored summary; whether the analyzer fully discharges it *)

let answer_id k =
  match k.target with
  | T_litmus t -> "litmus:" ^ t.Litmus.prog.Prog.name
  | T_bmc t -> "bmc:" ^ t.Litmus.prog.Prog.name
  | T_refine e -> "refine:" ^ e.K.name

let direct k =
  match k.target with
  | T_litmus t -> A_litmus (Cache.Codec.litmus_summary (Litmus.run t))
  | T_bmc t ->
      let rm = Bmc.check ~mode:Bmc.Arm t.Litmus.prog in
      let sc = Bmc.check ~mode:Bmc.Sc t.Litmus.prog in
      A_bmc (Cache.Codec.bmc_summary t ~rm ~sc)
  | T_refine e ->
      let v = Vrm.Refinement.check ~config:e.K.rm_config e.K.prog in
      let a = Analysis.Driver.analyze e in
      A_refine
        ( Cache.Codec.refine_summary ~name:e.K.name e.K.prog v,
          a.Analysis.Driver.a_overall = Analysis.Diag.Pass
          && a.Analysis.Driver.a_refinement = Analysis.Diag.Pass )

let answers keys =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun k ->
      let id = answer_id k in
      if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id (direct k))
    keys;
  tbl

let beh = Fingerprint.behaviors

(* Does a served payload carry the same behaviors as the direct run? *)
let agrees answer (data : J.t) =
  match answer with
  | A_litmus l ->
      let r = Cache.Codec.litmus_of_json data in
      r.Cache.Codec.l_prog_digest = l.Cache.Codec.l_prog_digest
      && beh r.Cache.Codec.l_sc = beh l.Cache.Codec.l_sc
      && beh r.Cache.Codec.l_rm = beh l.Cache.Codec.l_rm
      && beh r.Cache.Codec.l_rm_only = beh l.Cache.Codec.l_rm_only
      && r.Cache.Codec.l_as_expected = l.Cache.Codec.l_as_expected
  | A_bmc b ->
      let r = Cache.Codec.bmc_of_json data in
      r.Cache.Codec.b_prog_digest = b.Cache.Codec.b_prog_digest
      && beh r.Cache.Codec.b_rm = beh b.Cache.Codec.b_rm
      && beh r.Cache.Codec.b_sc = beh b.Cache.Codec.b_sc
      && r.Cache.Codec.b_rm_sat = b.Cache.Codec.b_rm_sat
  | A_refine (s, static_pass) ->
      let r = Cache.Codec.refine_of_json data in
      r.Cache.Codec.r_prog_digest = s.Cache.Codec.r_prog_digest
      && r.Cache.Codec.r_holds = s.Cache.Codec.r_holds
      &&
      if Cache.Codec.refine_served_by_static data then static_pass
      else
        beh r.Cache.Codec.r_sc = beh s.Cache.Codec.r_sc
        && beh r.Cache.Codec.r_rm = beh s.Cache.Codec.r_rm
        && beh r.Cache.Codec.r_rm_only = beh s.Cache.Codec.r_rm_only

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Stop the daemon: graceful shutdown first, SIGKILL if it lingers;
   always reaped. *)
let stop d =
  (try ignore (Client.shutdown ~socket:d.socket) with _ -> ());
  let deadline = Ctx.now () +. 10. in
  while alive d.pid && Ctx.now () < deadline do
    Unix.sleepf 0.01
  done;
  if alive d.pid then begin
    (try Unix.kill d.pid Sys.sigkill with _ -> ());
    try ignore (Unix.waitpid [] d.pid) with _ -> ()
  end

let cache_dir (ctx : Ctx.t) = Filename.concat ctx.Ctx.out_dir "cache"

let start (ctx : Ctx.t) ~instance =
  (* a relative socket path keeps clear of the sun_path length limit *)
  let socket = Filename.concat ctx.Ctx.out_dir (Printf.sprintf "v%d.sock" instance) in
  let cache_dir = cache_dir ctx in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat ctx.Ctx.out_dir "vrmd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process ctx.Ctx.vrm_cli
      [| ctx.Ctx.vrm_cli; "serve"; "--socket"; socket; "--cache-dir"; cache_dir |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  let deadline = Ctx.now () +. 30. in
  let rec wait () =
    if not (alive pid) then failwith "vrmd exited during start-up";
    let ready =
      Sys.file_exists socket
      && match Client.status ~socket with Ok _ -> true | Error _ | (exception _) -> false
    in
    if not ready then
      if Ctx.now () < deadline then begin
        Unix.sleepf 0.002;
        wait ()
      end
      else failwith "vrmd did not come up"
  in
  (try wait () with e -> stop d; raise e);
  d

let submit_req k lane =
  Protocol.Submit
    { job = job_of k; jobs = 1; deadline_s = None; backend = backend_of k;
      cert_cache = k.cert_cache; por = k.por; sym = k.sym; lane }

(* Start a daemon and submit every warm key through it, so the hot
   tier is full when the ladder starts. *)
let bring_up ctx ~instance warm =
  let d = start ctx ~instance in
  (try
     Client.with_connection ~socket:d.socket (fun fd ->
         Array.iter
           (fun k ->
             match Client.roundtrip fd (submit_req k Protocol.Interactive) with
             | Protocol.Result _ -> ()
             | _ -> failwith ("warm-up failed: " ^ answer_id k))
           warm)
   with e -> stop d; raise e);
  d

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                             *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Served of { wall_s : float; digest : string }
  | Shed
  | Error_reply of string
  | Transport of string

type record = {
  req : Gen.req;
  sent : float;  (** absolute *)
  done_ : float;  (** absolute *)
  reply : (string, string) result;  (** the raw reply frame, or why none *)
}

let rec read_exact fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then failwith "daemon closed the connection";
    read_exact fd b (off + n) (len - n)
  end

(* One reply frame in {!Protocol}'s framing, kept raw: decoding waits
   until the ladder is over, so the generator spends its time sending on
   schedule, and thousands of replies stay compact strings. *)
let read_frame fd =
  let h = Bytes.create 4 in
  read_exact fd h 0 4;
  let len = Int32.to_int (Bytes.get_int32_be h 0) in
  if len < 0 || len > Protocol.max_frame then failwith "bad reply frame";
  let b = Bytes.create len in
  read_exact fd b 0 len;
  Bytes.unsafe_to_string b

type conn = {
  fd : Unix.file_descr;
  reqs : Gen.req array;  (** this connection's requests, in due order *)
  requests : J.t array;  (** encoded once, before the clock starts *)
  out : record array;
  mutable next : int;
  mutable inflight : (int * float) option;  (** request index, send time *)
}

(* The generator: a single-threaded loop over the connections. A
   request goes out at its due time if its connection is idle, or as
   soon as the connection frees up; a reply is read as soon as it
   arrives. The last [spin_s] before a due time is spent polling. *)
let generate ~t0 (conns : conn list) =
  let fail_rest c msg =
    let now = Ctx.now () in
    (match c.inflight with
    | Some (i, sent) -> c.out.(i) <- { req = c.reqs.(i); sent; done_ = now; reply = Error msg }
    | None -> ());
    for i = c.next to Array.length c.reqs - 1 do
      c.out.(i) <- { req = c.reqs.(i); sent = now; done_ = now; reply = Error msg }
    done;
    c.inflight <- None;
    c.next <- Array.length c.reqs
  in
  let due c = t0 +. c.reqs.(c.next).Gen.r_due in
  let idle_pending c = c.inflight = None && c.next < Array.length c.reqs in
  let rec loop () =
    List.iter
      (fun c ->
        if idle_pending c && due c <= Ctx.now () then begin
          let i = c.next in
          let sent = Ctx.now () in
          match Protocol.send c.fd c.requests.(i) with
          | () ->
              c.inflight <- Some (i, sent);
              c.next <- i + 1
          | exception e -> fail_rest c (Printexc.to_string e)
        end)
      conns;
    let busy = List.filter (fun c -> c.inflight <> None) conns in
    let waiting = List.filter idle_pending conns in
    if busy <> [] || waiting <> [] then begin
      let timeout =
        match waiting with
        | [] -> -1.
        | _ ->
            let next = List.fold_left (fun m c -> Float.min m (due c)) infinity waiting in
            (* wake a little early and poll: a timer wake-up lands late by
               a variable fraction of a millisecond, which would
               otherwise count as latency *)
            let wait = next -. Ctx.now () in
            if wait <= spin_s then 0. else wait -. spin_s
      in
      let readable =
        match Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun c ->
          if List.mem c.fd readable then
            match c.inflight, read_frame c.fd with
            | Some (i, sent), frame ->
                c.out.(i) <- { req = c.reqs.(i); sent; done_ = Ctx.now (); reply = Ok frame };
                c.inflight <- None
            | None, _ -> ()
            | exception e -> fail_rest c (Printexc.to_string e))
        busy;
      loop ()
    end
  in
  loop ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e -> Unix.close fd; raise e);
  fd

(* Decode a raw reply; distinct payloads are kept once, by digest, for
   the verification pass. *)
let decode payloads k (reply : (string, string) result) =
  match reply with
  | Error m -> Transport m
  | Ok frame -> (
      match J.of_string frame with
      | Error m -> Transport ("undecodable reply: " ^ m)
      | Ok j -> (
          match Protocol.response_of_json j with
          | Protocol.Result j ->
              let data = J.member "data" j in
              let digest = Digest.string (answer_id k ^ J.to_string data) in
              if not (Hashtbl.mem payloads digest) then Hashtbl.add payloads digest data;
              Served { wall_s = J.to_float (J.member "wall_s" j); digest }
          | Protocol.Overloaded_r _ -> Shed
          | Protocol.Error_r m -> Error_reply m
          | _ -> Error_reply "unexpected reply"
          | exception e -> Transport (Printexc.to_string e)))

(* Requests due at or before [t] and not answered by then. *)
let backlog_at (recs : record array) ~t0 t =
  Array.fold_left
    (fun acc r -> if t0 +. r.req.Gen.r_due <= t && r.done_ > t then acc + 1 else acc)
    0 recs

let backlog_max (recs : record array) ~t0 =
  let events =
    Array.to_list recs
    |> List.concat_map (fun r -> [ (t0 +. r.req.Gen.r_due, 1); (r.done_, -1) ])
    |> List.sort compare
  in
  fst
    (List.fold_left
       (fun (best, cur) (_, d) ->
         let cur = cur + d in
         (max best cur, cur))
       (0, 0) events)

let status_json socket =
  match Client.status ~socket with
  | Ok j -> j
  | Error e -> failwith ("status: " ^ e)

let int_at path j =
  J.to_int (List.fold_left (fun j f -> J.member f j) j path)

let run (ctx : Ctx.t) (rep : Report.t) (layers : Layers.t) =
  let warm = warm_keys () in
  let classes = cold_classes () in
  let cold_order = Gen.cold_order ~seed:ctx.Ctx.seed (Array.map Array.length classes) in
  let cold = Array.map (fun (c, m) -> classes.(c).(m)) cold_order in
  (* known answers, once: not part of set-up time *)
  let answers, oracle_s = Ctx.time (fun () -> answers (Array.append warm cold)) in
  (* the store starts empty; a first daemon computes the warm keys
     into it *)
  rm_rf (cache_dir ctx);
  let (), warm_compute_s =
    Ctx.time (fun () -> stop (bring_up ctx ~instance:0 warm))
  in
  (* set-up: a daemon restarts on that store and loads the warm keys
     into its hot tier; timed five times, the last one serves *)
  let instance = ref 0 in
  let daemons = ref [] in
  let d, setup_s =
    Ctx.setup_median ~n:5 (fun () ->
        List.iter stop !daemons;
        daemons := [];
        incr instance;
        let d = bring_up ctx ~instance:!instance warm in
        daemons := [ d ];
        d)
  in
  Fun.protect
    ~finally:(fun () -> List.iter stop !daemons)
    (fun () ->
      let rungs = Array.length rates in
      let window_s = ctx.Ctx.seconds /. float (cycles * rungs) in
      let schedule =
        Gen.vrmd_schedule ~seed:ctx.Ctx.seed ~rates ~cycles ~window_s
          ~n_warm:(Array.length warm) ~n_cold:(Array.length cold)
      in
      let key_of (r : Gen.req) =
        if r.Gen.r_cold then cold.(r.Gen.r_key) else warm.(r.Gen.r_key)
      in
      let before = status_json d.socket in
      let lanes =
        [ List.filter (fun r -> not r.Gen.r_cold) (Array.to_list schedule);
          List.filter (fun r -> r.Gen.r_cold) (Array.to_list schedule) ]
        |> List.map Array.of_list
      in
      let conns =
        List.map
          (fun reqs ->
            let lane_of (r : Gen.req) =
              if r.Gen.r_cold then Protocol.Bulk else Protocol.Interactive
            in
            { fd = connect d.socket; reqs;
              requests =
                Array.map (fun r -> Protocol.request_to_json (submit_req (key_of r) (lane_of r))) reqs;
              out = Array.map (fun r -> { req = r; sent = 0.; done_ = 0.; reply = Error "unsent" }) reqs;
              next = 0; inflight = None })
          lanes
      in
      (* start the clock on a clean heap: the known-answer runs left
         garbage that would otherwise be collected mid-ladder *)
      Gc.compact ();
      let t0 = Ctx.now () +. 0.05 in
      Fun.protect
        ~finally:(fun () -> List.iter (fun c -> try Unix.close c.fd with _ -> ()) conns)
        (fun () -> generate ~t0 conns);
      let after = status_json d.socket in
      let rss = Report.peak_rss_mb (Some d.pid) in
      let recs = Array.concat (List.map (fun c -> c.out) conns) in
      Array.sort (fun a b -> compare a.req.Gen.r_idx b.req.Gen.r_idx) recs;
      let n = Array.length recs in
      rep.Report.attempted <- n;
      (* verification: every distinct served payload against the
         direct run of its program *)
      let payloads = Hashtbl.create 256 in
      let outcomes = Array.map (fun r -> decode payloads (key_of r.req) r.reply) recs in
      let verified = Hashtbl.create 256 in
      Array.iteri
        (fun i r ->
          match outcomes.(i) with
          | Served { digest; _ } ->
              if not (Hashtbl.mem verified digest) then begin
                Hashtbl.add verified digest ();
                let k = key_of r.req in
                let ok =
                  try agrees (Hashtbl.find answers (answer_id k)) (Hashtbl.find payloads digest)
                  with _ -> false
                in
                if not ok then
                  Report.wrong rep "%s: served payload differs from the direct run"
                    (answer_id k)
              end
          | Shed -> Report.failed rep "request %d shed" r.req.Gen.r_idx
          | Error_reply m -> Report.failed rep "request %d: %s" r.req.Gen.r_idx m
          | Transport m -> Report.failed rep "request %d: transport: %s" r.req.Gen.r_idx m)
        recs;
      (* tracing: one span per request from its due time, the
         roundtrip as its child; the parent's self time is the wait for
         the connection *)
      Array.iter
        (fun r ->
          let parent =
            Spans.record ctx.Ctx.trace ~req:r.req.Gen.r_idx
              (if r.req.Gen.r_cold then "request.bulk" else "request.interactive")
              ~start:(t0 +. r.req.Gen.r_due) ~stop:r.done_
          in
          ignore
            (Spans.record ctx.Ctx.trace ~parent ~req:r.req.Gen.r_idx
               "service.roundtrip" ~start:r.sent ~stop:r.done_))
        recs;
      (* latency from due time, per rate: the p99 pools every window of
         the rate, the p50 is the median of its windows' medians *)
      let lat r = (r.done_ -. (t0 +. r.req.Gen.r_due)) *. 1000. in
      let windows = cycles * rungs in
      let by_window = Array.make windows [] in
      Array.iter (fun r -> by_window.(r.req.Gen.r_window) <- r :: by_window.(r.req.Gen.r_window)) recs;
      let window_growing w =
        let start = t0 +. (float w *. window_s) in
        let mid = backlog_at recs ~t0 (start +. (window_s /. 2.)) in
        let fin = backlog_at recs ~t0 (start +. window_s) in
        fin >= backlog_floor && fin >= 2 * mid
      in
      let rung_stats =
        Array.init rungs (fun k ->
            let ws = List.filter (fun w -> w mod rungs = k) (List.init windows Fun.id) in
            let rs = List.concat_map (fun w -> by_window.(w)) ws in
            let xs = Array.of_list (List.map lat rs) in
            let m = Array.length xs in
            let served =
              List.for_all
                (fun r -> match outcomes.(r.req.Gen.r_idx) with Served _ -> true | _ -> false)
                rs
            in
            let growing =
              2 * List.length (List.filter window_growing ws) > List.length ws
            in
            let p50 =
              Pstats.median
                (Array.of_list
                   (List.filter_map
                      (fun w ->
                        match by_window.(w) with
                        | [] -> None
                        | l -> Some (Pstats.median (Array.of_list (List.map lat l))))
                      ws))
            in
            let p99 = if m > 0 then Pstats.percentile xs 99. else 0. in
            let meets =
              served && Pstats.supported m 99. && p99 <= slo_p99_ms && not growing
            in
            (m, p50, p99, growing, meets))
      in
      let m_low, p50_low, p99_low, _, _ = rung_stats.(0) in
      let m_high, _, p99_high, _, _ = rung_stats.(rungs - 1) in
      if not (Pstats.supported m_low 99.) then
        Report.failed rep "low rung has %d requests: too few for a p99" m_low;
      (* the highest rate meeting the limit, as the rate achieved there:
         its requests over the time from each of its windows opening to
         the window's last answer *)
      let achieved k =
        let ws = List.filter (fun w -> w mod rungs = k) (List.init windows Fun.id) in
        let span =
          List.fold_left
            (fun acc w ->
              let last = List.fold_left (fun m r -> Float.max m r.done_) 0. by_window.(w) in
              acc +. (last -. (t0 +. (float w *. window_s))))
            0. ws
        in
        let m = List.fold_left (fun acc w -> acc + List.length by_window.(w)) 0 ws in
        if span > 0. then float m /. span else 0.
      in
      let max_rps = ref 0. in
      Array.iteri (fun k (_, _, _, _, meets) -> if meets then max_rps := achieved k) rung_stats;
      Array.iteri
        (fun k (m, p50, p99, growing, meets) ->
          Printf.printf
            "  rate %6.0f req/s + cold: %5d requests, p50 %.3f ms, p99 %.3f ms%s%s\n"
            rates.(k) m p50 p99
            (if growing then ", backlog growing" else "")
            (if meets then "" else ", misses the SLO"))
        rung_stats;
      Report.(
        add_detail rep (m "oracle_s" oracle_s "s");
        add_detail rep (m "warm_compute_s" warm_compute_s "s");
        add_detail rep (m ~samples:m_low "req_ms.p50.low" p50_low "ms");
        add_detail rep (m ~samples:m_low "req_ms.p99.low" p99_low "ms");
        add_detail rep (m ~samples:m_high "req_ms.p99.high" p99_high "ms");
        add_detail rep (m ~samples:n "max_rps_slo" !max_rps "req/s"));
      Report.core_e2e rep ~setup_s ~rss_mb:rss ~throughput:!max_rps ~samples:n;
      (* per-layer *)
      let set = Layers.set layers in
      let per_op x = if n = 0 then 0. else float x /. float n in
      let delta path = int_at path after - int_at path before in
      let served =
        Array.to_list recs
        |> List.filter_map (fun r ->
               match outcomes.(r.req.Gen.r_idx) with
               | Served { wall_s; _ } -> Some (r, wall_s)
               | _ -> None)
      in
      let arr f = Array.of_list (List.map f served) in
      let pct xs p = if Array.length xs = 0 then 0. else Pstats.percentile xs p in
      let roundtrip = arr (fun (r, _) -> (r.done_ -. r.sent) *. 1000.) in
      let queue = arr (fun (r, w) -> ((r.done_ -. r.sent) -. w) *. 1000.) in
      let job = arr (fun (_, w) -> w *. 1000.) in
      let late = Array.map (fun r -> (r.sent -. (t0 +. r.req.Gen.r_due)) *. 1000.) recs in
      set "service.roundtrip_ms.p50" (pct roundtrip 50.);
      set "service.roundtrip_ms.p99" (pct roundtrip 99.);
      set "service.queue_ms.p50" (pct queue 50.);
      set "service.queue_ms.p99" (pct queue 99.);
      set "service.job_ms.p99" (pct job 99.);
      set "gen.late_ms.p99" (pct late 99.);
      set "service.backlog_max" (float (backlog_max recs ~t0));
      set "service.coalesced" (per_op (delta [ "coalesced" ]));
      set "service.shed.interactive" (per_op (delta [ "lanes"; "interactive"; "shed" ]));
      set "service.shed.bulk" (per_op (delta [ "lanes"; "bulk"; "shed" ]));
      set "service.batches" (per_op (delta [ "batches" ]));
      set "service.fp_memo_hits" (per_op (delta [ "fp_memo_hits" ]));
      set "service.static_served" (per_op (delta [ "static_served" ]));
      let hot = delta [ "hot"; "hot_hits" ] and disk = delta [ "hot"; "disk_hits" ] in
      let miss = delta [ "hot"; "misses" ] in
      set "cache.hot_hit_ratio" (Report.ratio hot (hot + disk + miss));
      set "cache.disk_hits" (per_op disk);
      set "cache.misses" (per_op miss);
      set "cache.stores" (per_op (delta [ "cache"; "stores" ]));
      set "cache.evictions" (per_op (delta [ "hot"; "evictions" ]));
      let eng j = Cache.Codec.stats_of_json (J.member "engine" j) in
      let e0 = eng before and e1 = eng after in
      Layers.memmodel layers ~ops:n
        ~explore_s:(e1.Engine.wall_s -. e0.Engine.wall_s)
        ~total:(fun f -> f e1 - f e0);
      let busy = Pstats.sum (Array.map (fun r -> r.done_ -. r.sent) recs) in
      (busy, n))
