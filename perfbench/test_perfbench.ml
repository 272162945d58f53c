(* Unit tests of the benchmark's own arithmetic: nearest-rank
   percentiles and the ten-samples-beyond rule, span self time, and
   seed determinism of every generated workload. *)

let fails = ref 0

let check name cond =
  if not cond then begin
    incr fails;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) < 1e-9

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float (100 - i)) in
  (* nearest rank: the smallest sample with at least p% at or below *)
  check "p50 of 1..100 is 50" (close (Pstats.percentile xs 50.) 50.);
  check "p90 of 1..100 is 90" (close (Pstats.percentile xs 90.) 90.);
  check "p99 of 1..100 is 99" (close (Pstats.percentile xs 99.) 99.);
  check "p100 is the maximum" (close (Pstats.percentile xs 100.) 100.);
  check "p1 is the minimum" (close (Pstats.percentile xs 1.) 1.);
  check "odd count median" (close (Pstats.median [| 3.; 1.; 2. |]) 2.);
  check "even count median is the lower middle"
    (close (Pstats.median [| 4.; 1.; 3.; 2. |]) 2.);
  check "rank is exact at p99 of 1000" (Pstats.rank 1000 99. = 990);
  check "rank is exact at p99.9 of 10000" (Pstats.rank 10000 99.9 = 9990);
  check "input array is left unsorted"
    (let a = [| 2.; 1. |] in
     ignore (Pstats.median a);
     a.(0) = 2.)

let test_beyond_rule () =
  check "p50 needs 20 samples" (Pstats.min_samples 50. = 20);
  check "p90 needs 100 samples" (Pstats.min_samples 90. = 100);
  check "p99 needs 1000 samples" (Pstats.min_samples 99. = 1000);
  check "19 samples do not support p50" (not (Pstats.supported 19 50.));
  check "20 samples support p50" (Pstats.supported 20 50.);
  check "999 samples do not support p99" (not (Pstats.supported 999 99.));
  check "no samples support nothing" (not (Pstats.supported 0 50.))

let span ?(parent = -1) id start stop =
  { Spans.id; name = Printf.sprintf "s%d" id; start; stop; parent; req = 0 }

let self_of all id =
  List.assoc id (List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times all))

let test_self_time () =
  let parent = span 0 0. 10. in
  let a = span ~parent:0 1 1. 3. and b = span ~parent:0 2 5. 6. in
  check "self = span - children" (close (self_of [ parent; a; b ] 0) 7.);
  check "leaf self = duration" (close (self_of [ parent; a; b ] 1) 2.);
  (* overlapping children cover their union once *)
  let c = span ~parent:0 3 2. 4. in
  check "overlapping children counted once" (close (self_of [ parent; a; c ] 0) 7.);
  (* a child running past its parent is clipped to the parent *)
  let d = span ~parent:0 4 8. 12. in
  check "children clipped to the parent" (close (self_of [ parent; d ] 0) 8.);
  (* grandchildren do not count against the grandparent *)
  let g = span ~parent:1 5 1.5 2.5 in
  check "only direct children count" (close (self_of [ parent; a; g ] 0) 8.);
  check "middle span loses its child" (close (self_of [ parent; a; g ] 1) 1.);
  check "covered of nothing is zero" (close (Spans.covered ~lo:0. ~hi:1. []) 0.);
  let tr = Spans.create ~enabled:true in
  let v =
    Spans.with_span tr ~req:7 "outer" (fun p ->
        Spans.with_span tr ~parent:p ~req:7 "inner" (fun _ -> 42))
  in
  let all = Spans.spans tr in
  check "with_span returns the body's value" (v = 42);
  check "two spans recorded" (List.length all = 2);
  check "inner names outer as parent"
    (let find n = List.find (fun s -> s.Spans.name = n) all in
     (find "inner").Spans.parent = (find "outer").Spans.id);
  check "self never exceeds duration"
    (List.for_all (fun (s, t) -> t <= Spans.duration s +. 1e-12 && t >= -1e-12)
       (Spans.self_times all));
  let off = Spans.create ~enabled:false in
  ignore (Spans.with_span off ~req:0 "x" (fun _ -> ()));
  check "disabled recorder keeps nothing" (Spans.count off = 0)

let names a = Array.to_list (Array.map (fun p -> p.Gen.b_name) a)

let test_determinism () =
  let versions s k =
    Array.to_list
      (Array.map
         (fun v ->
           Printf.sprintf "%s/%d" v.Sekvm.Kernel_progs.linux
             v.Sekvm.Kernel_progs.stage2_levels)
         (Gen.certify_sweep ~seed:s k))
  in
  check "certify order repeats for a seed" (versions 7 0 = versions 7 0);
  check "certify sweeps differ from each other"
    (List.exists (fun k -> versions 7 k <> versions 7 0) [ 1; 2; 3 ]);
  check "certify sweep covers every version"
    (List.sort compare (versions 7 1)
    = List.sort compare
        (List.map
           (fun v ->
             Printf.sprintf "%s/%d" v.Sekvm.Kernel_progs.linux
               v.Sekvm.Kernel_progs.stage2_levels)
           Sekvm.Kernel_progs.versions));
  let progs s = Gen.bmc_programs ~seed:s in
  check "bmc programs repeat for a seed" (names (progs 3) = names (progs 3));
  check "bmc program bodies repeat for a seed"
    (Array.for_all2
       (fun a b ->
         Memmodel.Fingerprint.prog a.Gen.b_prog
         = Memmodel.Fingerprint.prog b.Gen.b_prog)
       (progs 3) (progs 3));
  check "seeded family members change with the seed"
    (names (progs 3) <> names (progs 4));
  check "every seed decides the same number of programs"
    (Array.length (progs 3) = Array.length (progs 4));
  check "bmc sweep order repeats"
    (names (Gen.bmc_sweep ~seed:3 2 (progs 3)) = names (Gen.bmc_sweep ~seed:3 2 (progs 3)));
  let sched s =
    Gen.vrmd_schedule ~seed:s ~rates:[| 100.; 300. |] ~cycles:3 ~window_s:1.
      ~n_warm:40 ~n_cold:60
  in
  check "request schedule repeats for a seed" (sched 11 = sched 11);
  check "request schedule changes with the seed" (sched 11 <> sched 12);
  let s = sched 11 in
  check "due times ascend"
    (let ok = ref true in
     Array.iteri (fun i r -> if i > 0 && r.Gen.r_due < s.(i - 1).Gen.r_due then ok := false) s;
     !ok);
  check "every cold key is touched at most once"
    (let cold = List.filter (fun r -> r.Gen.r_cold) (Array.to_list s) in
     List.length (List.sort_uniq compare (List.map (fun r -> r.Gen.r_key) cold))
     = List.length cold);
  check "every cold key is touched"
    (List.length (List.filter (fun r -> r.Gen.r_cold) (Array.to_list s)) = 60);
  check "cold keys are spread evenly over the windows"
    (List.for_all
       (fun w ->
         List.length
           (List.filter (fun r -> r.Gen.r_cold && r.Gen.r_window = w) (Array.to_list s))
         = 10)
       [ 0; 1; 2; 3; 4; 5 ]);
  check "windows cycle through the ladder"
    (Array.for_all (fun r -> r.Gen.r_rung = r.Gen.r_window mod 2) s);
  check "each window holds its own due times"
    (Array.for_all
       (fun r -> float r.Gen.r_window <= r.Gen.r_due && r.Gen.r_due < float (r.Gen.r_window + 1))
       s);
  check "request indices follow due order"
    (Array.for_all (fun r -> s.(r.Gen.r_idx) == r) s);
  let order = Gen.cold_order ~seed:5 [| 6; 3; 9 |] in
  check "cold order repeats for a seed" (order = Gen.cold_order ~seed:5 [| 6; 3; 9 |]);
  check "cold order is a permutation"
    (List.sort compare (Array.to_list order)
    = List.sort compare
        (List.concat
           [ List.init 6 (fun m -> (0, m)); List.init 3 (fun m -> (1, m));
             List.init 9 (fun m -> (2, m)) ]));
  check "cold classes are spread over the run"
    (let first_half = Array.sub order 0 9 in
     Array.exists (fun (c, _) -> c = 1) first_half
     && Array.exists (fun (c, _) -> c = 1) (Array.sub order 9 9))

let () =
  test_percentiles ();
  test_beyond_rule ();
  test_self_time ();
  test_determinism ();
  if !fails > 0 then begin
    Printf.printf "%d check(s) failed\n" !fails;
    exit 1
  end
