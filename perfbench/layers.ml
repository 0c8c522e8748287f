(* The per-layer metric set. Every traced run prints all of it; a layer
   a workload never enters reports zero work. *)

let solve_layers = Replay.zero_metrics

let decomp_layers =
  [
    ("decomp.partition_s", "s");
    ("decomp.seam_s", "s");
    ("decomp.clusters", "count");
    ("decomp.cluster_sum_s", "s");
    ("decomp.cluster_max_s", "s");
    ("decomp.parallel_eff", "ratio");
    ("decomp.completed_share", "ratio");
  ]

let service_layers =
  [
    ("service.hit_s", "s");
    ("service.parse_s", "s");
    ("service.fingerprint_s", "s");
    ("service.cache_render_s", "s");
    ("service.miss_solve_s", "s");
    ("service.wait_s", "s");
    ("service.hit_ratio", "ratio");
    ("service.queue_high_water", "count");
    ("service.rejected", "count");
    ("service.watchdog_kills", "count");
  ]

let process_layers =
  [ ("alloc_mwords", "Mwords"); ("gc.major_collections", "count"); ("bench.gen_late_p99_s", "s") ]

(* Assemble the full set in a fixed order: measured values by name,
   zero for everything the workload did not measure. Raises if a
   measured name is not part of the set, so the set cannot drift. *)
let assemble measured =
  let all =
    List.map (fun (n, _, u) -> (n, u)) solve_layers
    @ decomp_layers @ service_layers @ process_layers
  in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n all) then failwith ("unknown per-layer metric " ^ n))
    measured;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) measured with
      | Some (_, v, _) -> (n, v, u)
      | None -> (n, 0., u))
    all
