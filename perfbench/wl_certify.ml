(* certify: one caller in a closed loop certifying KVM versions with
   [Vrm.Certificate.certify], exactly as [vrm-cli certify] does. The
   explicit-state exploration inside [Refinement.check] does almost all
   the work; BMC, the cache and the service stay idle. *)

open Memmodel
module K = Sekvm.Kernel_progs
module C = Vrm.Certificate

(* Two sweeps give twenty certificates, enough for a p50 with ten
   beyond it. *)
let min_sweeps = 2

let program_stats (r : C.report) =
  List.concat_map
    (fun (p : C.program_report) ->
      [ p.C.refine.Vrm.Refinement.sc_stats; p.C.refine.Vrm.Refinement.rm_stats ])
    r.C.programs

let check_report (rep : Report.t) (v : K.version) (r : C.report) =
  let label = Printf.sprintf "Linux %s/%d" v.K.linux v.K.stage2_levels in
  if not r.C.certified then Report.wrong rep "%s: not CERTIFIED" label;
  List.iter
    (fun (p : C.program_report) ->
      if not p.C.as_expected then
        Report.wrong rep "%s: %s not as expected" label p.C.entry.K.name)
    r.C.programs

let run (ctx : Ctx.t) (rep : Report.t) (layers : Layers.t) =
  let first = List.hd K.versions in
  (* set-up: warm-up certification of one fixed version, so lazy
     tables fill and the heap reaches its working size before timing *)
  let (), setup_s =
    Ctx.setup_median ~n:3 (fun () -> ignore (C.certify first))
  in
  let times = ref [] and n = ref 0 in
  let stats = ref Engine.zero_stats in
  let audits = ref 0 and distinct = ref 0 in
  Ctx.sweeps ~seconds:ctx.Ctx.seconds ~min_sweeps (fun sweep ->
      (* audits of distinct (program digest, config) pairs in a sweep *)
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          let i = !n in
          incr n;
          rep.Report.attempted <- rep.Report.attempted + 1;
          let t0 = Ctx.now () in
          match
            Spans.with_span ctx.Ctx.trace ~req:i "vrm.certify" (fun _ ->
                C.certify v)
          with
          | exception e ->
              Report.failed rep "certify %s: %s" v.K.linux
                (Printexc.to_string e)
          | r ->
              times := (Ctx.now () -. t0) :: !times;
              check_report rep v r;
              stats := List.fold_left Engine.add_stats !stats (program_stats r);
              List.iter
                (fun (p : C.program_report) ->
                  let e = p.C.entry in
                  incr audits;
                  Hashtbl.replace seen
                    ( Fingerprint.prog e.K.prog,
                      Fingerprint.promising_config e.K.rm_config )
                    ())
                r.C.programs)
        (Gen.certify_sweep ~seed:ctx.Ctx.seed sweep);
      distinct := !distinct + Hashtbl.length seen);
  let times = Array.of_list (List.rev !times) in
  let k = Array.length times in
  let busy = Pstats.sum times in
  let certs_per_s = if busy > 0. then float k /. busy else 0. in
  Report.(
    add_detail rep (m ~samples:k "certs_per_s" certs_per_s "1/s");
    add_detail rep
      (m ~samples:k "cert_s.p50" (if k > 0 then Pstats.median times else 0.) "s"));
  Report.core_e2e rep ~setup_s ~rss_mb:(Report.peak_rss_mb None)
    ~throughput:certs_per_s ~samples:k;
  let explore_s = !stats.Engine.wall_s in
  Layers.memmodel layers ~ops:k ~explore_s ~total:(fun f -> f !stats);
  (* the certify span less the exploration inside it: the checkers,
     the system audit and Theorem 4 *)
  let certify_s =
    if Spans.enabled ctx.Ctx.trace then
      Spans.total_duration (Spans.spans ctx.Ctx.trace) "vrm.certify"
    else busy
  in
  Layers.set layers "core.check_s"
    (if k = 0 then 0. else (certify_s -. explore_s) /. float k);
  Layers.set layers "core.audit_distinct_ratio" (Report.ratio !distinct !audits);
  (busy, k)
