(* Workload [prove]: a closed loop, one query at a time, through the
   monolithic optimizer at its default configuration (jobs 1) to a
   proven optimum on 5-table chain/star/cycle/clique queries.

   The instances are a fixed pool of base queries; the seed renames
   their tables and shuffles the order of every pass. Solve times are
   heavy-tailed and so sensitive to the variable order that, at 6
   tables, even permuting the tables of a fixed pool moved the run's
   median latency by 28% between seeds; a fresh draw per seed moved it
   by more. So the pool, and each instance's search, is the same for
   every seed.

   The queries have 5 tables, not 6: a 6-table solve takes a few ms to
   ~3 s, so a 20 s window held only ~40 of them, and over ten seeds the
   median and tail latency, each one or two single timings of a few
   distinct queries, spread 0.25 and 0.27 (quartile distance over
   median). 5-table solves take ~1 ms to ~0.5 s (median ~0.03 s), so
   a 30 s window's seven passes over 80 queries time each query seven
   times across the run, and branch & bound still does most of the
   work. *)

open Relalg
module O = Joinopt.Optimizer

let config = O.default_config
let shapes = [| Join_graph.Chain; Join_graph.Star; Join_graph.Cycle; Join_graph.Clique |]
let pool_size = 80
let base_seed = 1000

let base_pool () =
  Array.init pool_size (fun i ->
      Workload.generate ~seed:(base_seed + i) ~shape:shapes.(i mod 4) ~num_tables:5 ())

(* Pass [p] of the run: the pool relabelled and shuffled from (seed, p). *)
let pass_queries ~seed pool p =
  let st = Random.State.make [| seed; p; 0x9e37 |] in
  let qs = Array.mapi (fun i q -> (i, Common.relabel st ~prefix:(Printf.sprintf "p%dq%dt" p i) q)) pool in
  Common.shuffle st qs

type op = {
  base : int;
  query : Query.t;
  latency : float;
  result : O.result;
  alloc_words : float;
  majors : int;
}

let solve (base, q) =
  let w0, m0 = Common.gc_counts () in
  let result, latency = Common.time (fun () -> O.optimize ~config q) in
  let w1, m1 = Common.gc_counts () in
  { base; query = q; latency; result; alloc_words = w1 -. w0; majors = m1 - m0 }

(* Set-up: generate the pool and the first pass, then an untimed warm-up
   solving the pool's first 10 queries (about 0.5 s). *)
let setup ~seed =
  let t0 = Common.now () in
  let pool = base_pool () in
  let first = pass_queries ~seed pool 0 in
  for i = 0 to 9 do
    ignore (O.optimize ~config pool.(i))
  done;
  (pool, first, Common.now () -. t0)

(* A pass over the pool took 3-5 s on the reference machine (2 vCPUs). *)
let nominal_pass_s = 4.

(* Output checks, untimed: a certified, proven-optimal plan whose true
   cost recomputes exactly and lies within the approximation guarantee
   of the Selinger DP optimum. Returns the problems and the cost ratio. *)
let check o =
  let r = o.result in
  let cert =
    match (r.O.provenance, r.O.certificate) with
    | Some `Milp_certified, Milp.Solver.Certified _ -> []
    | _ -> [ "plan not certified by the MILP path" ]
  in
  let proven = if r.O.status = Milp.Branch_bound.Optimal then [] else [ "not proven optimal" ] in
  match (r.O.plan, r.O.true_cost) with
  | Some plan, Some tc when Plan.validate o.query plan = Ok () -> (
    let again = Cost_model.plan_cost ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm o.query plan in
    let recomputed =
      if Float.abs (again -. tc) <= 1e-9 *. Float.abs tc then []
      else [ Printf.sprintf "reported true cost %.17g, recomputed %.17g" tc again ]
    in
    match Replay.dp_optimum ~config o.query with
    | None -> (cert @ proven @ recomputed @ [ "DP referee timed out" ], None)
    | Some opt ->
      (cert @ proven @ recomputed @ Replay.referee_problems ~config ~optimum:opt tc, Some (tc /. opt)))
  | _ -> ([ "missing or invalid plan" ], None)

let obj_string = function Some f -> Printf.sprintf "%h" f | None -> "none"

let run ~seed ~seconds ~trace =
  let pool, first, s0 = setup ~seed in
  let setups = ref [ s0 ] in
  let resetup () =
    let _, _, s = setup ~seed in
    setups := s :: !setups
  in
  (* The traced replay runs after each operation, outside its timing. *)
  let traced =
    Common.passes ~seconds ~nominal_pass_s ~setups:9 ~resetup
      ~pass:(fun p -> if p = 0 then first else pass_queries ~seed pool p)
      ~solve:(fun q ->
        let o = solve q in
        (o, if trace then Some (Replay.run ~config o.query) else None))
  in
  let setup_s = Common.median !setups in
  let ops = List.map fst traced in
  let spent = Common.sum (List.map (fun o -> o.latency) ops) in
  let rss = Common.self_hwm_mb () in
  let lg = Common.ledger () in
  let ratios = ref [] in
  List.iteri
    (fun i (o, sp) ->
      let problems, ratio = check o in
      (* The replay must retrace the untraced search exactly. *)
      let diverged =
        match sp with
        | Some sp
          when sp.Replay.nodes <> o.result.O.nodes || sp.Replay.objective <> o.result.O.objective
          ->
          [ Printf.sprintf "replay diverged: %d nodes, objective %s" sp.Replay.nodes
              (obj_string sp.Replay.objective) ]
        | _ -> []
      in
      Common.record lg ~what:(Printf.sprintf "op %d" i) (problems @ diverged);
      Option.iter (fun x -> ratios := x :: !ratios) ratio;
      Printf.printf "op\t%d\tbase=%d\tlatency=%.6f\tnodes=%d\tobj=%s\talloc_words=%.0f%s\n" i o.base o.latency o.result.O.nodes
        (obj_string o.result.O.objective) o.alloc_words
        (match sp with
        | Some sp -> Printf.sprintf "\tsimplex_iters=%d" sp.Replay.simplex_iters
        | None -> ""))
    traced;
  let lat = List.map (fun o -> o.latency) ops in
  let n = float (List.length ops) in
  let tail, pct, count = Common.tail lat in
  Printf.printf "info\tprove\tops=%d\tpasses_s=%.3f\ttail=p%.1f of n=%d\tsetups_s=%s\n" (List.length ops) spent
    pct count (Common.setups_field (List.rev !setups));
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("p50_s", Common.median lat, "s");
        ("tail_s", tail, "s");
        ("throughput_per_s", n /. spent, "1/s");
        ("goodput_per_s", float (lg.Common.attempted - lg.Common.failed) /. spent, "1/s");
        ("quality_ratio", Common.geomean !ratios, "ratio");
        ("ok_share", Common.ok_share lg, "ratio");
        ("peak_rss_mb", rss, "MB");
      ]
    else
      let rp = List.filter_map (fun (o, sp) -> Option.map (fun sp -> (o.latency, sp)) sp) traced in
      Layers.assemble
        (Replay.metrics ~untraced:(List.map fst rp) (List.map snd rp)
        @ [
            ("alloc_mwords", Common.mean (List.map (fun o -> o.alloc_words /. 1e6) ops), "Mwords");
            ("gc.major_collections", Common.mean (List.map (fun o -> float o.majors) ops), "count");
          ])
  in
  (lg, metrics)
