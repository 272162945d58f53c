(* The vrmd verification service:

   - parity: every corpus job submitted through the scheduler returns
     the same behavior-set digests as a direct Litmus.run /
     Refinement.check (the golden-digest acceptance criterion), with
     the hot tier on and off;
   - warm cache: resubmitting the corpus costs zero exploration and is
     served from the in-memory hot tier;
   - coalescing: identical in-flight submissions share one execution;
   - lanes: interactive submissions overtake an earlier bulk backlog,
     a full lane sheds with [Overloaded] + retry-after, and a saturated
     bulk lane never sheds an interactive submission;
   - deadlines: a job that ages out while queued (bulk lane included,
     and after a journal replay) is [Deadline_expired] without ever
     starting exploration; the engine's valve cuts short a running one;
   - durability: pending journal entries replay across a simulated
     kill-and-restart with bit-identical result payloads; a hot hit is
     served from memory, much faster than a disk hit;
   - the daemon end-to-end: serve over a real Unix socket, submit,
     status, graceful shutdown; oversized frames are survivable errors;
   - the client survives a mid-restart daemon via bounded retry. *)

open Memmodel
open Cache
open Service

let with_sched ?(workers = 2) ?cache ?hot ?interactive_depth ?bulk_depth
    ?journal f =
  let cache =
    match cache with
    | Some c -> c
    | None -> Store.create ~engine_version:Engine.version ()
  in
  let sched =
    Scheduler.create ~workers ~cache ?hot ?interactive_depth ?bulk_depth
      ?journal ()
  in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () -> f sched)

let done_payload name = function
  | Scheduler.Done p, (m : Scheduler.meta) -> (p, m)
  | Scheduler.Timed_out, _ -> Alcotest.failf "%s timed out" name
  | Scheduler.Deadline_expired, _ ->
      Alcotest.failf "%s expired in the queue" name
  | Scheduler.Overloaded _, _ -> Alcotest.failf "%s was shed" name
  | Scheduler.Failed e, _ -> Alcotest.failf "%s failed: %s" name e

(* ------------------------------------------------------------------ *)
(* Parity with direct runs                                             *)
(* ------------------------------------------------------------------ *)

let test_litmus_parity () =
  with_sched (fun sched ->
      List.iter
        (fun (t : Litmus.t) ->
          let payload, _ =
            done_payload t.Litmus.prog.Prog.name
              (Scheduler.run sched (Scheduler.Litmus_spec t))
          in
          let remote = Codec.litmus_of_json payload in
          let local = Codec.litmus_summary (Litmus.run t) in
          let b = Fingerprint.behaviors in
          let n = t.Litmus.prog.Prog.name in
          Alcotest.(check string) (n ^ " prog digest")
            local.Codec.l_prog_digest remote.Codec.l_prog_digest;
          Alcotest.(check string) (n ^ " sc digest") (b local.Codec.l_sc)
            (b remote.Codec.l_sc);
          Alcotest.(check string) (n ^ " rm digest") (b local.Codec.l_rm)
            (b remote.Codec.l_rm);
          Alcotest.(check string) (n ^ " rm-only digest")
            (b local.Codec.l_rm_only)
            (b remote.Codec.l_rm_only);
          Alcotest.(check bool) (n ^ " as_expected")
            local.Codec.l_as_expected remote.Codec.l_as_expected)
        Paper_examples.all)

let test_refine_parity () =
  with_sched (fun sched ->
      List.iter
        (fun (e : Sekvm.Kernel_progs.entry) ->
          let payload, _ =
            done_payload e.Sekvm.Kernel_progs.name
              (Scheduler.run sched (Scheduler.Refine_spec e))
          in
          let remote = Codec.refine_of_json payload in
          let v =
            Vrm.Refinement.check ~config:e.Sekvm.Kernel_progs.rm_config
              e.Sekvm.Kernel_progs.prog
          in
          let local =
            Codec.refine_summary ~name:e.Sekvm.Kernel_progs.name
              e.Sekvm.Kernel_progs.prog v
          in
          let b = Fingerprint.behaviors in
          let n = e.Sekvm.Kernel_progs.name in
          Alcotest.(check bool) (n ^ " holds") local.Codec.r_holds
            remote.Codec.r_holds;
          if Codec.refine_served_by_static payload then begin
            (* The scheduler skipped exploration on the analyzer's word:
               legitimate only when the direct run indeed holds (checked
               above) and the payload carries no behavior sets. *)
            Alcotest.(check bool) (n ^ " static implies holds") true
              remote.Codec.r_holds;
            Alcotest.(check int) (n ^ " static payload is empty") 0
              (Behavior.cardinal remote.Codec.r_sc
              + Behavior.cardinal remote.Codec.r_rm)
          end
          else begin
            Alcotest.(check string) (n ^ " sc digest") (b local.Codec.r_sc)
              (b remote.Codec.r_sc);
            Alcotest.(check string) (n ^ " rm digest") (b local.Codec.r_rm)
              (b remote.Codec.r_rm);
            Alcotest.(check string) (n ^ " rm-only digest")
              (b local.Codec.r_rm_only)
              (b remote.Codec.r_rm_only)
          end)
        (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
       @ Sekvm.Kernel_progs.lint_corpus))

(* ------------------------------------------------------------------ *)
(* Cache behavior through the scheduler                                *)
(* ------------------------------------------------------------------ *)

let test_warm_resubmit () =
  with_sched (fun sched ->
      let specs =
        List.map
          (fun (t : Litmus.t) -> Scheduler.Litmus_spec t)
          Paper_examples.all
      in
      let submit_all () =
        List.map
          (fun s -> Scheduler.await sched (Scheduler.submit sched s))
          specs
      in
      let cold = submit_all () in
      let c1 = Scheduler.counters sched in
      let warm = submit_all () in
      let c2 = Scheduler.counters sched in
      Alcotest.(check bool) "cold round explored" true
        (c1.Scheduler.engine.Engine.visited > 0);
      Alcotest.(check int) "warm round explored nothing"
        c1.Scheduler.engine.Engine.visited c2.Scheduler.engine.Engine.visited;
      Alcotest.(check int) "every warm job hit the hot tier"
        (List.length specs)
        c2.Scheduler.hot_stats.Hot.hot_hits;
      Alcotest.(check int) "warm round missed nothing"
        c1.Scheduler.hot_stats.Hot.misses c2.Scheduler.hot_stats.Hot.misses;
      List.iter2
        (fun (o1, _) (o2, (m2 : Scheduler.meta)) ->
          match (o1, o2) with
          | Scheduler.Done p1, Scheduler.Done p2 ->
              Alcotest.(check string) "payload bit-identical"
                (Json.to_string p1) (Json.to_string p2);
              Alcotest.(check bool) "warm meta says cached" true
                m2.Scheduler.from_cache
          | _ -> Alcotest.fail "a job did not complete")
        cold warm)

let test_coalescing () =
  (* one worker + a slow filler job keeps the queue busy while two
     identical submissions arrive: they must share one ticket. *)
  with_sched ~workers:1 (fun sched ->
      let filler = Scheduler.Refine_spec Sekvm.Kernel_progs.mcs_handoff in
      let spec = Scheduler.Litmus_spec Paper_examples.example1 in
      let t0 = Scheduler.submit sched filler in
      let t1 = Scheduler.submit sched spec in
      let t2 = Scheduler.submit sched spec in
      ignore (Scheduler.await sched t0);
      let p1, _ = done_payload "first" (Scheduler.await sched t1) in
      let p2, _ = done_payload "second" (Scheduler.await sched t2) in
      Alcotest.(check string) "coalesced submissions agree"
        (Json.to_string p1) (Json.to_string p2);
      let c = Scheduler.counters sched in
      Alcotest.(check int) "one submission was coalesced" 1
        c.Scheduler.coalesced;
      (* the pair cost one execution: one miss+store for the litmus job,
         one for the filler *)
      Alcotest.(check int) "only two cache stores" 2
        c.Scheduler.cache_stats.Store.stores)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_queue_level () =
  with_sched (fun sched ->
      match
        Scheduler.run sched ~deadline_s:0.
          (Scheduler.Certify_spec
             { Sekvm.Kernel_progs.linux = "5.5"; stage2_levels = 4 })
      with
      | Scheduler.Deadline_expired, _ -> ()
      | Scheduler.Done _, _ -> Alcotest.fail "expired job still ran"
      | _ -> Alcotest.fail "expired job misclassified");
  (* expiries are never cached: the same spec afterwards is a miss *)
  with_sched (fun sched ->
      let spec = Scheduler.Litmus_spec Paper_examples.example1 in
      (match Scheduler.run sched ~deadline_s:0. spec with
      | Scheduler.Deadline_expired, _ -> ()
      | _ -> Alcotest.fail "expected queue-level expiry");
      match Scheduler.run sched spec with
      | Scheduler.Done _, m ->
          Alcotest.(check bool) "post-expiry run recomputes" false
            m.Scheduler.from_cache
      | _ -> Alcotest.fail "post-expiry run did not complete")

let test_deadline_bulk_lane () =
  (* a bulk job whose deadline passes while it waits behind a long
     interactive job must come back [Deadline_expired], with zero
     exploration spent on it *)
  with_sched ~workers:1 (fun sched ->
      let filler =
        Scheduler.submit sched
          (Scheduler.Refine_spec Sekvm.Kernel_progs.mcs_handoff)
      in
      let doomed =
        Scheduler.submit sched ~lane:Protocol.Bulk ~deadline_s:0.
          (Scheduler.Litmus_spec Paper_examples.example1)
      in
      ignore (Scheduler.await sched filler);
      let visited_after_filler =
        (Scheduler.counters sched).Scheduler.engine.Engine.visited
      in
      (match Scheduler.await sched doomed with
      | Scheduler.Deadline_expired, _ -> ()
      | _ -> Alcotest.fail "queued bulk job did not expire");
      let c = Scheduler.counters sched in
      Alcotest.(check int) "expiry counted" 1 c.Scheduler.expired;
      Alcotest.(check int) "expired job explored nothing"
        visited_after_filler c.Scheduler.engine.Engine.visited;
      (* and it was never cached *)
      match
        Scheduler.run sched (Scheduler.Litmus_spec Paper_examples.example1)
      with
      | Scheduler.Done _, m ->
          Alcotest.(check bool) "expired job left no cache entry" false
            m.Scheduler.from_cache
      | _ -> Alcotest.fail "rerun did not complete")

let test_deadline_engine_level () =
  (* the engine's valve: an already-passed absolute deadline stops the
     exploration at its first state *)
  let prog = Paper_examples.example1.Litmus.prog in
  let _, stats =
    Sc.run_stats ~deadline:(Unix.gettimeofday () -. 1.) prog
  in
  Alcotest.(check bool) "expired deadline sets budget_hit" true
    stats.Engine.budget_hit;
  Alcotest.(check bool) "exploration was cut short" true
    (stats.Engine.visited <= 1);
  (* a generous deadline changes nothing *)
  let b_free, s_free = Sc.run_stats prog in
  let b_dl, s_dl =
    Sc.run_stats ~deadline:(Unix.gettimeofday () +. 3600.) prog
  in
  Alcotest.(check bool) "generous deadline: same behaviors" true
    (Behavior.equal b_free b_dl);
  Alcotest.(check bool) "generous deadline: no budget hit" true
    (not (s_free.Engine.budget_hit || s_dl.Engine.budget_hit))

(* ------------------------------------------------------------------ *)
(* Lanes and backpressure                                              *)
(* ------------------------------------------------------------------ *)

let test_lane_priority () =
  (* one worker, three bulk refine jobs queued behind a filler, then an
     interactive arrival: the interactive job must be served before the
     backlog — when it completes, at most one bulk job can have run. *)
  with_sched ~workers:1 (fun sched ->
      let _filler =
        Scheduler.submit sched
          (Scheduler.Refine_spec Sekvm.Kernel_progs.mcs_handoff)
      in
      let bulk_specs =
        [ Scheduler.Refine_spec Sekvm.Kernel_progs.vmid_alloc;
          Scheduler.Litmus_spec Paper_examples.example2_fixed;
          Scheduler.Litmus_spec Paper_examples.example3_fixed ]
      in
      let _bulk =
        List.map
          (fun s -> Scheduler.submit sched ~lane:Protocol.Bulk s)
          bulk_specs
      in
      let inter =
        Scheduler.submit sched (Scheduler.Litmus_spec Paper_examples.example1)
      in
      let _ = done_payload "interactive" (Scheduler.await sched inter) in
      let c = Scheduler.counters sched in
      (* completed so far: the filler, the interactive job, and at most
         one racing bulk job the worker may have started right after *)
      Alcotest.(check bool)
        "interactive overtook the bulk backlog" true
        (c.Scheduler.completed <= 3);
      Scheduler.drain sched;
      let c2 = Scheduler.counters sched in
      Alcotest.(check int) "backlog drains eventually" 5
        c2.Scheduler.completed)

let test_bulk_wakeup () =
  (* regression: with a reserved interactive worker (pool of two), a
     lone bulk submission must still be picked up — the enqueue wakeup
     has to reach a worker that is allowed to pop the bulk lane *)
  with_sched ~workers:2 (fun sched ->
      List.iter
        (fun (t : Litmus.t) ->
          let ticket =
            Scheduler.submit sched ~lane:Protocol.Bulk
              (Scheduler.Litmus_spec t)
          in
          ignore (done_payload "bulk-only" (Scheduler.await sched ticket)))
        [ Paper_examples.mp_plain; Paper_examples.sb ])

let test_shedding () =
  (* bulk lane bounded at 1: with the worker busy and one bulk job
     queued, the next distinct bulk submission is shed with a
     retry-after hint; coalesced resubmissions are never shed *)
  with_sched ~workers:1 ~bulk_depth:1 (fun sched ->
      let filler =
        Scheduler.submit sched
          (Scheduler.Refine_spec Sekvm.Kernel_progs.mcs_handoff)
      in
      let queued_spec = Scheduler.Litmus_spec Paper_examples.example1 in
      let queued =
        Scheduler.submit sched ~lane:Protocol.Bulk queued_spec
      in
      let shed =
        Scheduler.submit sched ~lane:Protocol.Bulk
          (Scheduler.Litmus_spec Paper_examples.example2_fixed)
      in
      (match Scheduler.await sched shed with
      | Scheduler.Overloaded { retry_after_s }, m ->
          Alcotest.(check bool) "retry-after is positive" true
            (retry_after_s > 0.);
          Alcotest.(check bool) "shed did not compute" false
            m.Scheduler.from_cache
      | _ -> Alcotest.fail "overfull bulk lane did not shed");
      (* resubmitting the queued job coalesces instead of shedding *)
      let again =
        Scheduler.submit sched ~lane:Protocol.Bulk queued_spec
      in
      (match Scheduler.await sched again with
      | Scheduler.Done _, _ -> ()
      | _ -> Alcotest.fail "coalesced resubmission was shed");
      ignore (Scheduler.await sched filler);
      ignore (Scheduler.await sched queued);
      let c = Scheduler.counters sched in
      Alcotest.(check int) "one bulk shed counted" 1
        c.Scheduler.bulk.Scheduler.lane_shed;
      Alcotest.(check int) "no interactive shed" 0
        c.Scheduler.interactive.Scheduler.lane_shed;
      Alcotest.(check int) "the resubmission coalesced" 1
        c.Scheduler.coalesced;
      (* shed outcomes are transient: the same spec re-submitted after
         capacity frees completes normally *)
      match
        Scheduler.run sched
          (Scheduler.Litmus_spec Paper_examples.example2_fixed)
      with
      | Scheduler.Done _, _ -> ()
      | _ -> Alcotest.fail "post-shed resubmission failed")

let test_no_interactive_shed () =
  (* a bulk lane bounded at 2, saturated by a stream of distinct bulk
     jobs behind a slow filler, with an interactive job submitted after
     each bulk one: the bulk lane sheds, the interactive lane never
     does, and every interactive job completes *)
  with_sched ~workers:2 ~bulk_depth:2 (fun sched ->
      let bulk spec =
        ignore (Scheduler.submit sched ~lane:Protocol.Bulk spec)
      in
      bulk (Scheduler.Refine_spec Sekvm.Kernel_progs.mcs_handoff);
      let interactive =
        List.mapi
          (fun i (t : Litmus.t) ->
            bulk (Scheduler.Litmus_spec (List.nth Litmus_suite.all i));
            ( t.Litmus.prog.Prog.name,
              Scheduler.submit sched (Scheduler.Litmus_spec t) ))
          Paper_examples.all
      in
      List.iter
        (fun (name, ticket) ->
          ignore (done_payload name (Scheduler.await sched ticket)))
        interactive;
      Scheduler.drain sched;
      let c = Scheduler.counters sched in
      Alcotest.(check bool) "the bulk lane saturated and shed" true
        (c.Scheduler.bulk.Scheduler.lane_shed > 0);
      Alcotest.(check int) "no interactive shed" 0
        c.Scheduler.interactive.Scheduler.lane_shed)

(* ------------------------------------------------------------------ *)
(* Hot-tier parity and durability                                      *)
(* ------------------------------------------------------------------ *)

let tmppath prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 100000))

let rm_rf d =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
   with _ -> ());
  try Unix.rmdir d with _ -> ()

(* Two live executions of the same job agree on everything except the
   clock: scrub the wall-time (and other scheduling-dependent) stat
   fields so the comparison pins down exactly the verification content —
   digests, behavior sets, verdicts, deterministic exploration counts. *)
let rec scrub_volatile (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "wall_s" | "minor_words" | "lock_waits" | "tasks_stolen" ->
                 (k, Json.Null)
             | _ -> (k, scrub_volatile v))
           fields)
  | Json.List items -> Json.List (List.map scrub_volatile items)
  | other -> other

let test_hot_onoff_parity () =
  (* the acceptance criterion: result payloads are bit-identical with
     the hot tier on and off (modulo wall-clock stats) *)
  let specs =
    [ Scheduler.Litmus_spec Paper_examples.mp_plain;
      Scheduler.Litmus_spec Paper_examples.sb;
      Scheduler.Refine_spec Sekvm.Kernel_progs.vmid_alloc ]
  in
  let run_all ~hot =
    with_sched ~hot (fun sched ->
        List.map
          (fun s ->
            let p, _ = done_payload "parity" (Scheduler.run sched s) in
            Json.to_string (scrub_volatile p))
          specs)
  in
  List.iter2
    (Alcotest.(check string) "hot on/off payload bit-identical")
    (run_all ~hot:true) (run_all ~hot:false)

(* The hot tier's reason to exist: a warm entry served from memory must
   cost far less than re-reading it from disk (open + checksum + parse)
   — at least 5x at p50 (measured ~360x) — and hot lookups must never
   touch the disk. Single lookups sit at the clock's resolution, so each
   sample times a batch. *)
let test_hot_vs_disk () =
  let dir = tmppath "vrmd-warmpath" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Store.create ~dir ~engine_version:Engine.version () in
      let key =
        Scheduler.cache_key (Scheduler.Litmus_spec Paper_examples.mp_plain)
      in
      Store.add store key
        (Codec.litmus_to_json
           (Codec.litmus_summary (Litmus.run Paper_examples.mp_plain)));
      let hot = Hot.create store in
      Alcotest.(check bool) "first lookup promotes the disk entry" true
        (Option.is_some (Hot.find hot key));
      let before = Hot.counters hot and disk_before = Store.counters store in
      let n = 1000 in
      for _ = 1 to n do
        if Option.is_none (Hot.find hot key) then
          Alcotest.fail "hot lookup missed"
      done;
      let after = Hot.counters hot and disk_after = Store.counters store in
      Alcotest.(check int) "N hot lookups are N hot hits" n
        (after.Hot.hot_hits - before.Hot.hot_hits);
      Alcotest.(check int) "hot lookups fall through to disk 0 times" 0
        (after.Hot.disk_hits - before.Hot.disk_hits);
      Alcotest.(check int) "hot lookups read the disk 0 times"
        disk_before.Store.hits disk_after.Store.hits;
      let p50 f =
        let batch = 200 in
        let samples =
          Array.init 60 (fun _ ->
              let t0 = Unix.gettimeofday () in
              for _ = 1 to batch do
                ignore (f ())
              done;
              (Unix.gettimeofday () -. t0) /. float batch)
        in
        Array.sort compare samples;
        samples.(Array.length samples / 2)
      in
      let hot_s = Float.max 1e-9 (p50 (fun () -> Hot.find hot key)) in
      let disk_s = p50 (fun () -> Store.find store key) in
      Alcotest.(check bool)
        (Printf.sprintf "hot hit >= 5x faster than disk at p50 (%.0fx)"
           (disk_s /. hot_s))
        true
        (disk_s >= 5. *. hot_s))

let test_journal_replay () =
  let dir = tmppath "vrmd-journal-cache" in
  let jpath = tmppath "vrmd-journal" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove jpath with _ -> ())
    (fun () ->
      let entry = Sekvm.Kernel_progs.vmid_alloc in
      let spec = Scheduler.Refine_spec entry in
      (* session 1 "crashes" with two pending jobs journaled: one
         healthy, one whose absolute deadline has already passed *)
      let j1, p1 = Journal.open_ jpath in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length p1);
      Journal.record_add j1
        { Journal.e_key = Scheduler.cache_key spec;
          e_job = Scheduler.job_of_spec spec;
          e_jobs = 1;
          e_lane = Protocol.Bulk;
          e_deadline = None;
          e_backend = Protocol.Explicit;
          e_cert_cache = true;
          e_por = true;
          e_sym = true };
      let doomed_spec = Scheduler.Litmus_spec Paper_examples.example1 in
      Journal.record_add j1
        { Journal.e_key = Scheduler.cache_key doomed_spec;
          e_job = Scheduler.job_of_spec doomed_spec;
          e_jobs = 1;
          e_lane = Protocol.Bulk;
          e_deadline = Some (Unix.gettimeofday () -. 1.);
          e_backend = Protocol.Explicit;
          e_cert_cache = true;
          e_por = true;
          e_sym = true };
      Journal.close j1;
      (* restart: both jobs replay; the healthy one completes and the
         stale one is classified Deadline_expired, never run *)
      let j2, pending = Journal.open_ jpath in
      Alcotest.(check int) "both adds pending" 2 (List.length pending);
      let store = Store.create ~dir ~engine_version:Engine.version () in
      let replayed_payload =
        with_sched ~cache:store ~journal:j2 (fun sched ->
            Alcotest.(check int) "replayed both" 2
              (Scheduler.replay sched pending);
            Scheduler.drain sched;
            let c = Scheduler.counters sched in
            Alcotest.(check int) "stale replay expired, not run" 1
              c.Scheduler.expired;
            Alcotest.(check int) "healthy replay completed" 1
              c.Scheduler.completed;
            (* the replayed result is already cached *)
            let p, m = done_payload "replayed" (Scheduler.run sched spec) in
            Alcotest.(check bool) "replay populated the cache" true
              m.Scheduler.from_cache;
            Json.to_string p)
      in
      Journal.close j2;
      (* terminal states were journaled: nothing pending on reopen *)
      let j3, pending3 = Journal.open_ jpath in
      Journal.close j3;
      Alcotest.(check int) "journal forgot finished jobs" 0
        (List.length pending3);
      (* kill-and-restart digest parity: a fresh process over the same
         cache dir (hot tier cold, then disabled entirely) serves the
         byte-identical payload *)
      List.iter
        (fun hot ->
          let store2 = Store.create ~dir ~engine_version:Engine.version () in
          with_sched ~cache:store2 ~hot (fun sched2 ->
              let p2, m2 =
                done_payload "restart" (Scheduler.run sched2 spec)
              in
              Alcotest.(check bool) "restart served from disk" true
                m2.Scheduler.from_cache;
              Alcotest.(check string)
                "payload bit-identical across restart" replayed_payload
                (Json.to_string p2);
              if hot then begin
                (* the disk hit promoted the entry: a second pass is
                   served from memory, explores nothing, and returns
                   the same bytes *)
                let p3, _ =
                  done_payload "promoted" (Scheduler.run sched2 spec)
                in
                let c = Scheduler.counters sched2 in
                Alcotest.(check int) "first pass: one disk hit" 1
                  c.Scheduler.hot_stats.Hot.disk_hits;
                Alcotest.(check int) "second pass: one hot hit" 1
                  c.Scheduler.hot_stats.Hot.hot_hits;
                Alcotest.(check int) "neither pass explored" 0
                  c.Scheduler.engine.Engine.visited;
                Alcotest.(check string) "hot payload = disk payload"
                  replayed_payload (Json.to_string p3)
              end))
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Framing and client resilience                                       *)
(* ------------------------------------------------------------------ *)

let test_frame_cap () =
  (* send side: a payload above max_frame is refused structurally *)
  let big = Json.String (String.make (Protocol.max_frame + 1) 'x') in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      (match Protocol.send a big with
      | exception Protocol.Frame_too_large _ -> ()
      | () -> Alcotest.fail "oversized send was not refused");
      (* recv side: a peer announcing an oversized frame is drained and
         rejected, and the connection keeps working afterwards *)
      let oversized = Protocol.max_frame + 5 in
      let writer =
        Thread.create
          (fun () ->
            let header = Bytes.create 4 in
            Bytes.set_int32_be header 0 (Int32.of_int oversized);
            ignore (Unix.write a header 0 4);
            let chunk = Bytes.make 65536 '.' in
            let rec push remaining =
              if remaining > 0 then
                let n = min remaining (Bytes.length chunk) in
                let w = Unix.write a chunk 0 n in
                push (remaining - w)
            in
            push oversized;
            (* then a well-formed frame on the same stream *)
            Protocol.send a (Json.Obj [ ("ok", Json.Bool true) ]))
          ()
      in
      (match Protocol.recv b with
      | exception Protocol.Frame_too_large n ->
          Alcotest.(check int) "reported oversize length" oversized n
      | _ -> Alcotest.fail "oversized frame accepted");
      (match Protocol.recv b with
      | Some j ->
          Alcotest.(check bool) "stream survives the oversized frame" true
            (Json.to_bool (Json.member "ok" j))
      | None -> Alcotest.fail "connection died after oversized frame"
      | exception e ->
          Alcotest.failf "stream desynced: %s" (Printexc.to_string e));
      Thread.join writer)

let test_client_retry () =
  let socket = tmppath "vrmd-retry" ^ ".sock" in
  (* no daemon, retries exhausted: the transient error surfaces *)
  (match Client.with_connection ~socket ~retries:1 (fun _ -> ()) with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ()
  | () -> Alcotest.fail "connected to a socket that does not exist"
  | exception e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e));
  (* mid-restart daemon: the socket appears only after the client's
     first attempt, so success proves the retry *)
  let server =
    Thread.create
      (fun () ->
        Thread.delay 0.1;
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lfd (Unix.ADDR_UNIX socket);
        Unix.listen lfd 1;
        let fd, _ = Unix.accept lfd in
        Unix.close fd;
        Unix.close lfd)
      ()
  in
  let connected =
    Client.with_connection ~socket ~retries:3 (fun _ -> true)
  in
  Thread.join server;
  (try Sys.remove socket with _ -> ());
  Alcotest.(check bool) "retry reached the late-binding daemon" true
    connected

(* ------------------------------------------------------------------ *)
(* The daemon, end to end                                              *)
(* ------------------------------------------------------------------ *)

let test_server_end_to_end () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vrmd-test-%d.sock" (Unix.getpid ()))
  in
  let cache = Store.create ~engine_version:Engine.version () in
  let sched = Scheduler.create ~workers:2 ~cache () in
  let server = Thread.create (fun () -> Server.serve ~socket sched) () in
  (* wait for the socket to appear *)
  let rec wait n =
    if n = 0 then Alcotest.fail "server did not come up";
    if not (Sys.file_exists socket) then (Thread.delay 0.05; wait (n - 1))
  in
  wait 100;
  (* submit one litmus job and check it against a direct run *)
  (match Client.submit ~socket (Protocol.Litmus "mp-plain") with
  | Error e -> Alcotest.failf "submit failed: %s" e
  | Ok payload ->
      let remote = Codec.litmus_of_json (Json.member "data" payload) in
      let local =
        Codec.litmus_summary (Litmus.run Paper_examples.mp_plain)
      in
      Alcotest.(check string) "socket parity: rm digest"
        (Fingerprint.behaviors local.Codec.l_rm)
        (Fingerprint.behaviors remote.Codec.l_rm));
  (* resubmission is served from cache *)
  (match Client.submit ~socket (Protocol.Litmus "mp-plain") with
  | Error e -> Alcotest.failf "resubmit failed: %s" e
  | Ok payload ->
      Alcotest.(check bool) "resubmit cached" true
        (Json.to_bool (Json.member "from_cache" payload)));
  (* unknown names are clean errors *)
  (match Client.submit ~socket (Protocol.Litmus "no-such-test") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown test accepted");
  (* status reports the three submissions *)
  (match Client.status ~socket with
  | Error e -> Alcotest.failf "status failed: %s" e
  | Ok counters ->
      Alcotest.(check int) "status: submitted" 2
        (Json.to_int (Json.member "submitted" counters)));
  (* graceful shutdown: server thread exits, socket file disappears *)
  (match Client.shutdown ~socket with
  | Error e -> Alcotest.failf "shutdown failed: %s" e
  | Ok () -> ());
  Thread.join server;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "service"
    [ ( "parity",
        [ Alcotest.test_case "litmus corpus digests = direct runs" `Slow
            test_litmus_parity;
          Alcotest.test_case "kernel corpus digests = direct runs" `Slow
            test_refine_parity ] );
      ( "cache",
        [ Alcotest.test_case "corpus resubmit costs zero exploration" `Slow
            test_warm_resubmit;
          Alcotest.test_case "identical in-flight submissions coalesce"
            `Quick test_coalescing ] );
      ( "deadlines",
        [ Alcotest.test_case "expired jobs cancel without running" `Quick
            test_deadline_queue_level;
          Alcotest.test_case "bulk-lane queue expiry" `Quick
            test_deadline_bulk_lane;
          Alcotest.test_case "engine deadline valve" `Quick
            test_deadline_engine_level ] );
      ( "lanes",
        [ Alcotest.test_case "interactive overtakes a bulk backlog" `Quick
            test_lane_priority;
          Alcotest.test_case "bulk wakeup reaches an unreserved worker"
            `Quick test_bulk_wakeup;
          Alcotest.test_case "full lane sheds with retry-after" `Quick
            test_shedding;
          Alcotest.test_case "bulk saturation never sheds interactive"
            `Quick test_no_interactive_shed ] );
      ( "durability",
        [ Alcotest.test_case "hot on/off payloads bit-identical" `Quick
            test_hot_onoff_parity;
          Alcotest.test_case "journal replay across a restart" `Quick
            test_journal_replay;
          Alcotest.test_case "hot hits beat disk hits, never read disk"
            `Quick test_hot_vs_disk ] );
      ( "resilience",
        [ Alcotest.test_case "oversized frames are survivable" `Quick
            test_frame_cap;
          Alcotest.test_case "client retries a mid-restart daemon" `Quick
            test_client_retry ] );
      ( "daemon",
        [ Alcotest.test_case "serve/submit/status/shutdown over a socket"
            `Quick test_server_end_to_end ] ) ]
