(* Workload [decomp]: 120-table planted-cluster queries (24 clique
   clusters of 5) through [Decomp.Decompose.optimize] with jobs 2 and a
   cluster cap of 5, under a budget no cluster slice reaches. The only
   workload that runs Partition, Seam, Wide_cost and the parallel
   cluster solves on [Milp.Work_pool], where the slowest cluster of
   each wave sets the wall time.

   Clusters have 5 tables, not 6: a 6-table clique solve took ~0.01 s
   to ~1 s, so a 120-table query took 6-11 s and a 20 s window held two
   of them, whose mean was the run's median; over ten runs of the same
   queries it spread 0.15-0.28 (quartile distance over median). A
   5-table query of 24 clusters takes ~1 s, so a 30 s window times each
   of three base queries seven times and the median is a middle timing
   of many.

   As in [prove], the instances are fixed base queries whose tables the
   seed renames: whole-query times differed by ~1.7x between draws, and
   permuting one query's tables moved it by as much. Three bases, an odd
   number, so the median falls within one base's timings and not
   between two bases of different cost. *)

open Relalg
module O = Joinopt.Optimizer
module D = Decomp.Decompose

let jobs = 2
let cluster_size = 5
let num_clusters = 24
let max_cluster = cluster_size
let budget_s = 120.
let base_seeds = [| 1; 2; 3 |]

(* The referee: a seeded iterative-improvement walk on the mask-free
   cost model, stopped after this many cost evaluations (a count, not a
   clock, so it is reproducible), and the factor the stitched plan must
   stay within — the declared bound of the repository's own 120-table
   differential test. The count matches that test's baseline (a 5 s
   walk, ~2000 evaluations at ~2.5 ms each on the reference machine, 2
   vCPUs). By then the walk stands within 0.9% of where its full
   descent (to the 3n^2 stall limit, ~45000 evaluations, ~3 min per
   query) ends: 38337, 57537 and 50670 against 38334, 57495 and 50220
   on the seed-1, -2 and -3 queries, whose stitched plans cost 38331,
   57495 and 50220. *)
let referee_evals = 2000
let declared_factor = 25.

let config =
  O.default_config
  |> O.with_decomp { O.default_decomp with O.dc_policy = O.Dc_force; dc_max_cluster = max_cluster }
  |> O.with_time_limit budget_s

(* The configuration [Decompose] hands each cluster solve. *)
let cluster_config =
  O.with_jobs 1 (O.with_decomp { config.O.decomp with O.dc_policy = O.Dc_off } config)

let clustered seed = Workload.generate_clustered ~seed ~num_clusters ~cluster_size ()
let base_pool () = Array.map clustered base_seeds

let pass_queries ~seed pool p =
  let st = Random.State.make [| seed; p; 0x5eed |] in
  Common.shuffle st
    (Array.mapi (fun i q -> (i, Common.relabel st ~prefix:(Printf.sprintf "p%db%dt" p i) q)) pool)

type op = {
  base : int;
  query : Query.t;
  latency : float;
  result : D.result;
  alloc_words : float;
  majors : int;
}

let solve (base, q) =
  let w0, m0 = Common.gc_counts () in
  let result, latency = Common.time (fun () -> D.optimize ~config ~jobs q) in
  let w1, m1 = Common.gc_counts () in
  { base; query = q; latency; result; alloc_words = w1 -. w0; majors = m1 - m0 }

(* Set-up: generate the base queries and the first pass, then an
   untimed warm-up decomposing a 40-table (8-cluster) relabelled query
   that is none of them. *)
let setup ~seed =
  let t0 = Common.now () in
  let pool = base_pool () in
  let first = pass_queries ~seed pool 0 in
  let st = Random.State.make [| seed; 0x3a |] in
  let warm =
    Common.relabel st ~prefix:"w"
      (Workload.generate_clustered ~seed:4 ~num_clusters:8 ~cluster_size ())
  in
  ignore (D.optimize ~config ~jobs warm);
  (pool, first, Common.now () -. t0)

(* A pass over the three base queries took 3.0-3.5 s on the reference machine. *)
let nominal_pass_s = 4.

exception Evaluations_spent

(* Best hash-join cost the referee walk finds on a base query (the
   plans it is compared with join renamed copies, at the same cost). *)
let referee q =
  let evals = ref 0 and best = ref infinity in
  let cost order =
    if !evals >= referee_evals then raise Evaluations_spent;
    incr evals;
    let c = Decomp.Wide_cost.plan_cost q (Plan.of_order order) in
    if c < !best then best := c;
    c
  in
  (try ignore (Dp_opt.Annealing.iterative_improvement ~cost ~seed:7 ~restarts:1 q)
   with Evaluations_spent -> ());
  !best

(* The walks run after the window, untimed, on two domains (the
   machine has two vCPUs); each is seeded and self-contained, so its
   result does not depend on which domain runs it. *)
let referees pool =
  let n = Array.length pool in
  let half = (n + 1) / 2 in
  let other = Domain.spawn (fun () -> Array.map referee (Array.sub pool half (n - half))) in
  let mine = Array.map referee (Array.sub pool 0 half) in
  Array.append mine (Domain.join other)

let multi_table (cr : D.cluster_report) = Array.length cr.D.cr_tables > 1

let check ~referees o =
  let r = o.result in
  let plan = r.D.d_plan in
  if Plan.validate o.query plan <> Ok () then ([ "missing or invalid plan" ], None)
  else begin
    let again =
      Decomp.Wide_cost.plan_cost ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm o.query plan
    in
    let recomputed =
      if Float.abs (again -. r.D.d_true_cost) <= 1e-9 *. Float.abs again then []
      else [ Printf.sprintf "reported true cost %.17g, recomputed %.17g" r.D.d_true_cost again ]
    in
    let uncertified =
      Array.to_list r.D.d_clusters
      |> List.filter (fun cr -> multi_table cr && (cr.D.cr_degraded || not cr.D.cr_certified))
      |> List.map (fun cr -> Printf.sprintf "cluster of table %d: %s" cr.D.cr_tables.(0) cr.D.cr_provenance)
    in
    let stitched = Decomp.Wide_cost.plan_cost o.query (Plan.of_order plan.Plan.order) in
    let ref_cost = referees.(o.base) in
    let referee =
      if stitched <= declared_factor *. ref_cost then []
      else [ Printf.sprintf "stitched %.6g exceeds %g x referee %.6g" stitched declared_factor ref_cost ]
    in
    (recomputed @ uncertified @ referee, Some (stitched /. ref_cost))
  end

(* Traced: re-time Partition and Seam on each query, and replay every
   multi-table cluster of the first pass through the monolithic layers
   (untraced solve, then the traced replay, sequentially). *)
let trace_layers ops =
  let seam = config.O.decomp.O.dc_seam in
  let per_op =
    List.map
      (fun o ->
        let pt, partition_s = Common.time (fun () -> Decomp.Partition.partition ~max_cluster o.query) in
        let _, seam_s = Common.time (fun () -> Decomp.Seam.order ~seam o.query pt) in
        (o, pt, partition_s, seam_s))
      ops
  in
  let first_pass = List.filteri (fun i _ -> i < Array.length base_seeds) per_op in
  let diverged = ref [] and untraced = ref [] and spans = ref [] in
  List.iter
    (fun (o, pt, _, _) ->
      Array.iter
        (fun (cl : Decomp.Partition.cluster) ->
          if Array.length cl.Decomp.Partition.cl_tables > 1 then begin
            let q = cl.Decomp.Partition.cl_query in
            let r, wall = Common.time (fun () -> O.optimize ~config:cluster_config q) in
            let sp = Replay.run ~config:cluster_config q in
            let reported =
              Array.to_list o.result.D.d_clusters
              |> List.find_opt (fun cr -> cr.D.cr_tables = cl.Decomp.Partition.cl_tables)
              |> Option.map (fun cr -> cr.D.cr_objective)
            in
            if sp.Replay.nodes <> r.O.nodes || sp.Replay.objective <> r.O.objective
               || reported <> Some r.O.objective
            then diverged := "cluster replay diverged" :: !diverged;
            untraced := wall :: !untraced;
            spans := sp :: !spans
          end)
        pt.Decomp.Partition.clusters)
    first_pass;
  let clusters o = List.filter multi_table (Array.to_list o.result.D.d_clusters) in
  let m f = Common.mean (List.map f per_op) in
  let layers =
    Replay.metrics ~untraced:!untraced !spans
    @ [
        ("decomp.partition_s", m (fun (_, _, p, _) -> p), "s");
        ("decomp.seam_s", m (fun (_, _, _, s) -> s), "s");
        ("decomp.clusters", m (fun (o, _, _, _) -> float o.result.D.d_num_clusters), "count");
        ( "decomp.cluster_sum_s",
          m (fun (o, _, _, _) -> Common.sum (List.map (fun cr -> cr.D.cr_elapsed) (clusters o))),
          "s" );
        ( "decomp.cluster_max_s",
          m (fun (o, _, _, _) -> List.fold_left (fun a cr -> Float.max a cr.D.cr_elapsed) 0. (clusters o)),
          "s" );
        ( "decomp.parallel_eff",
          m (fun (o, _, p, s) ->
              Common.sum (List.map (fun cr -> cr.D.cr_elapsed) (clusters o))
              /. (float jobs *. Float.max 1e-9 (o.latency -. p -. s))),
          "ratio" );
        ( "decomp.completed_share",
          m (fun (o, _, _, _) ->
              let cs = clusters o in
              float (List.length (List.filter (fun cr -> cr.D.cr_stopped = "completed") cs))
              /. float (max 1 (List.length cs))),
          "ratio" );
      ]
  in
  (layers, !diverged)

let run ~seed ~seconds ~trace =
  let pool, first, s0 = setup ~seed in
  let setups = ref [ s0 ] in
  let resetup () =
    let _, _, s = setup ~seed in
    setups := s :: !setups
  in
  let ops =
    Common.passes ~seconds ~nominal_pass_s ~setups:9 ~resetup
      ~pass:(fun p -> if p = 0 then first else pass_queries ~seed pool p)
      ~solve
  in
  let setup_s = Common.median !setups in
  let spent = Common.sum (List.map (fun o -> o.latency) ops) in
  let rss = Common.self_hwm_mb () in
  let referees = referees pool in
  let lg = Common.ledger () in
  let ratios = ref [] in
  List.iteri
    (fun i o ->
      let problems, ratio = check ~referees o in
      Common.record lg ~what:(Printf.sprintf "op %d" i) problems;
      Option.iter (fun x -> ratios := x :: !ratios) ratio;
      Printf.printf "op\t%d\tbase=%d\tclusters=%d\twall=%.3f\ttrue_cost=%.6g\talloc_words=%.0f\n" i
        o.base o.result.D.d_num_clusters o.latency o.result.D.d_true_cost o.alloc_words)
    ops;
  (* Too few queries per run for a percentile with ten samples beyond
     it: the tail is the slowest base query's median timing. *)
  let base_p50 =
    Array.mapi
      (fun b _ -> Common.median (List.filter_map (fun o -> if o.base = b then Some o.latency else None) ops))
      pool
  in
  let tail = Array.fold_left Float.max 0. base_p50 in
  let n = float (List.length ops) in
  Printf.printf "info\tdecomp\tops=%d\tpasses_s=%.3f\tbase_p50_s=%s\tsetups_s=%s\n"
    (List.length ops) spent
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.3f") base_p50)))
    (Common.setups_field (List.rev !setups));
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("p50_s", Common.median (List.map (fun o -> o.latency) ops), "s");
        ("tail_s", tail, "s");
        ("throughput_per_s", n /. spent, "1/s");
        ("goodput_per_s", float (lg.Common.attempted - lg.Common.failed) /. spent, "1/s");
        ("quality_ratio", Common.geomean !ratios, "ratio");
        ("ok_share", Common.ok_share lg, "ratio");
        ("peak_rss_mb", rss, "MB");
      ]
    else begin
      let layers, diverged = trace_layers ops in
      if diverged <> [] then Common.record lg ~what:"trace" diverged;
      Layers.assemble
        (layers
        @ [
            ("alloc_mwords", Common.mean (List.map (fun o -> o.alloc_words /. 1e6) ops), "Mwords");
            ("gc.major_collections", Common.mean (List.map (fun o -> float o.majors) ops), "count");
          ])
    end
  in
  (lg, metrics)
