(* Deterministic fuzz sweep: [Fuzz_driver.run_fuzz seed 60] for every
   seed 0-9999, the range and length test_fuzz's random storms draw
   from. Prints every failing seed and exits 1 if there is one, so an
   isolation regression fails every run, not only the runs whose random
   seeds happen to hit it. *)

let seeds = 10_000
let steps = 60

let () =
  let failing = ref [] in
  for seed = 0 to seeds - 1 do
    if not (Fuzz_driver.run_fuzz seed steps) then failing := seed :: !failing
  done;
  match List.rev !failing with
  | [] ->
      Printf.printf "fuzz sweep: %d seeds clean (%d steps each)\n" seeds steps
  | bad ->
      Printf.printf "fuzz sweep: %d of %d seeds failed: %s\n" (List.length bad)
        seeds
        (String.concat " " (List.map string_of_int bad));
      exit 1
