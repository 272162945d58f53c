(* The benchmark program: one workload per invocation.

     vrmbench --workload certify|bmc-decide|vrmd-open --seed N
              --seconds S --trace 0|1 --vrm-cli PATH [--out DIR]

   Prints the workload's metrics by name with units and sample counts,
   then, as the last line, one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). Exits 1 on any
   wrong verdict. *)

let workloads =
  [ ("certify", Wl_certify.run); ("bmc-decide", Wl_bmc.run);
    ("vrmd-open", Wl_vrmd.run) ]

let usage () =
  prerr_endline
    "usage: vrmbench --workload NAME --seed N --seconds S --trace 0|1 \
     --vrm-cli PATH [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and vrm_cli = ref "" and out_dir = ref ".bench_out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--vrm-cli", Arg.Set_string vrm_cli, "PATH");
      ("--out", Arg.Set_string out_dir, "DIR") ]
    (fun _ -> usage ())
    "vrmbench";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> usage ()
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let traced = !trace = 1 in
  let ctx =
    { Ctx.seed = !seed; seconds = !seconds;
      trace = Spans.create ~enabled:traced; out_dir = !out_dir;
      vrm_cli = !vrm_cli }
  in
  let rep = Report.create !workload in
  let layers = Layers.create () in
  let t0 = Ctx.now () in
  let busy_s, ops = run ctx rep layers in
  Printf.printf "workload %s, seed %d: %d operations, %.3f s busy\n" !workload
    !seed ops busy_s;
  Layers.set layers "wrong_ratio" (Report.ratio rep.Report.wrong rep.Report.attempted);
  Layers.set layers "failed_ratio" (Report.ratio rep.Report.failed rep.Report.attempted);
  if traced then begin
    let n = Spans.count ctx.Ctx.trace in
    let per_span = Ctx.span_cost_s () in
    Layers.set layers "trace.spans" (if ops = 0 then 0. else float n /. float ops);
    Layers.set layers "trace.overhead_ratio"
      (if busy_s <= 0. then 0. else float n *. per_span /. busy_s);
    let path =
      Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
    in
    Spans.write ctx.Ctx.trace ~t0 path;
    Printf.printf "spans: %d written to %s\n" n path;
    List.iter
      (fun (name, (count, total, self)) ->
        Printf.printf "  span %-24s n=%-7d total %.4f s, self %.4f s\n" name
          count total self)
      (Spans.by_name (Spans.spans ctx.Ctx.trace))
  end;
  (* the untraced run leaves its throughput behind; the traced run of
     the same workload and seed compares against it *)
  let record =
    Filename.concat !out_dir (Printf.sprintf "untraced-%s-%d.txt" !workload !seed)
  in
  let throughput =
    match List.find_opt (fun x -> x.Report.name = "throughput_per_s") rep.Report.e2e with
    | Some x -> x.Report.value
    | None -> nan
  in
  if not traced then begin
    let oc = open_out record in
    Printf.fprintf oc "%.17g\n" throughput;
    close_out oc
  end
  else begin
    match In_channel.with_open_text record In_channel.input_all with
    | s -> (
        match float_of_string_opt (String.trim s) with
        | Some untraced when throughput > 0. ->
            Printf.printf
              "tracing overhead: throughput %.6g traced vs %.6g untraced (%+.2f%%)\n"
              throughput untraced ((untraced /. throughput -. 1.) *. 100.)
        | _ -> ())
    | exception Sys_error _ ->
        Printf.printf "tracing overhead: no untraced run of this seed to compare\n"
  end;
  Layers.emit layers rep;
  Report.print rep ~trace:traced;
  exit (if Report.correct rep then 0 else 1)
