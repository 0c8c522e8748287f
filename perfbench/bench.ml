(* Benchmark executable: one seeded run of one workload.

     bench.exe --workload prove|decomp|serve --seed N --seconds S --trace 0|1
               [--server-exe PATH]

   Prints per-operation lines, then as its last line one JSON object
   with the run's correctness, operation counts and metrics (end-to-end
   metrics untraced, per-layer metrics traced). Exits 1 when any output
   check fails. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let server_exe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "prove|decomp|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--server-exe", Arg.Set_string server_exe, "PATH joinopt executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let lg, metrics =
    match !workload with
    | "prove" -> Prove.run ~seed ~seconds ~trace
    | "decomp" -> Decomp_wl.run ~seed ~seconds ~trace
    | "serve" -> Serve.run ~seed ~seconds ~trace ~exe:!server_exe
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  List.iter (fun n -> prerr_endline ("check failed: " ^ n)) (List.rev lg.Common.notes);
  let correct = lg.Common.failed = 0 && lg.Common.attempted > 0 in
  Common.result_line ~correct ~attempted:lg.Common.attempted ~failed:lg.Common.failed metrics;
  exit (if correct then 0 else 1)
