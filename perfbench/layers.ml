(* The per-layer metric set, in one canonical order. Every workload
   reports every metric: a layer a workload leaves idle reads 0, which
   is itself the prediction for that pairing. Counts and times are
   means per operation (certificate, program decision or request)
   unless the unit says otherwise. *)

let catalogue =
  [ (* memmodel: explicit-state exploration *)
    ("memmodel.explore_s", "s/op");
    ("memmodel.visited", "count/op");
    ("memmodel.transitions", "count/op");
    ("memmodel.dedup_hits", "count/op");
    ("memmodel.por_pruned", "count/op");
    ("memmodel.cert_hit_ratio", "ratio");
    ("memmodel.sym_collapsed", "count/op");
    ("memmodel.minor_words", "words/op");
    (* vrm core: checkers, system audit, Theorem 4 *)
    ("core.check_s", "s/op");
    ("core.audit_distinct_ratio", "ratio");
    (* bmc: SAT-based bounded model checking *)
    ("bmc.check_s", "s/op");
    ("bmc.combos", "count/op");
    ("bmc.models", "count/op");
    ("bmc.feasible_ratio", "ratio");
    ("bmc.incomplete", "count/op");
    ("bmc.vars", "count/op");
    ("bmc.clauses", "count/op");
    ("bmc.conflicts", "count/op");
    ("bmc.decisions", "count/op");
    ("bmc.propagations", "count/op");
    ("bmc.learned", "count/op");
    ("bmc.restarts", "count/op");
    (* analysis: the static wDRF analyzer *)
    ("analysis.analyze_s", "s/op");
    ("analysis.absint_iters", "count/op");
    ("analysis.widens", "count/op");
    ("analysis.static_pass_ratio", "ratio");
    (* service: vrmd framing, lanes, scheduling, and the generator *)
    ("service.roundtrip_ms.p50", "ms");
    ("service.roundtrip_ms.p99", "ms");
    ("service.queue_ms.p50", "ms");
    ("service.queue_ms.p99", "ms");
    ("service.job_ms.p99", "ms");
    ("gen.late_ms.p99", "ms");
    ("service.backlog_max", "count");
    ("service.coalesced", "count/op");
    ("service.shed.interactive", "count/op");
    ("service.shed.bulk", "count/op");
    ("service.batches", "count/op");
    ("service.fp_memo_hits", "count/op");
    ("service.static_served", "count/op");
    (* cache: hot tier and disk store *)
    ("cache.hot_hit_ratio", "ratio");
    ("cache.disk_hits", "count/op");
    ("cache.misses", "count/op");
    ("cache.stores", "count/op");
    ("cache.evictions", "count/op");
    (* verdict gate and the tracer itself *)
    ("wrong_ratio", "ratio");
    ("failed_ratio", "ratio");
    ("trace.spans", "count/op");
    ("trace.overhead_ratio", "ratio") ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name catalogue) then
    invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let emit (t : t) (rep : Report.t) =
  List.iter
    (fun (name, unit_) ->
      let v = Option.value (Hashtbl.find_opt t name) ~default:0. in
      Report.add_layer rep (Report.m name v unit_))
    catalogue

(* The memmodel set, from a window's totals: [total f] sums field [f]
   of the exploration statistics over the window, [explore_s] their
   wall time, [ops] the operations the window completed. *)
let memmodel (t : t) ~ops ~explore_s ~(total : (Memmodel.Engine.stats -> int) -> int) =
  let module E = Memmodel.Engine in
  let per_op x = if ops = 0 then 0. else x /. float ops in
  let count f = per_op (float (total f)) in
  set t "memmodel.explore_s" (per_op explore_s);
  set t "memmodel.visited" (count (fun s -> s.E.visited));
  set t "memmodel.transitions" (count (fun s -> s.E.transitions));
  set t "memmodel.dedup_hits" (count (fun s -> s.E.dedup_hits));
  set t "memmodel.por_pruned" (count (fun s -> s.E.por_pruned));
  set t "memmodel.cert_hit_ratio"
    (Report.ratio (total (fun s -> s.E.cert_hits)) (total (fun s -> s.E.cert_calls)));
  set t "memmodel.sym_collapsed" (count (fun s -> s.E.sym_collapsed));
  set t "memmodel.minor_words" (count (fun s -> s.E.minor_words))
