(* The traced replay of one monolithic solve. It calls each layer's
   entry point exactly as [Joinopt.Optimizer.optimize] does — encode,
   greedy seed, [Milp.Solver.solve] with the optimizer's parameters and
   that seed, decode — timing each call from outside, so it reproduces
   the untraced solve's node count and objective. It then re-times the
   pure sub-layers of the solve (presolve, root LP, final
   certification) on the same inputs; branch & bound self time is the
   solve's time minus those. *)

open Relalg
module O = Joinopt.Optimizer
module BB = Milp.Branch_bound

type spans = {
  wall_s : float;  (** the traced solve, encode to decode *)
  encode_s : float;
  seed_s : float;
  solve_s : float;
  decode_s : float;
  presolve_s : float;
  root_lp_s : float;
  certify_s : float;
  vars : int;
  constrs : int;
  nodes : int;
  simplex_iters : int;
  objective : float option;
  plan : Plan.t option;
}

let layers_s sp = sp.encode_s +. sp.seed_s +. sp.solve_s +. sp.decode_s

(* B&B self time: the solve minus presolve and final certification
   (which [Milp.Solver.solve] runs around the search); root LP included. *)
let bb_s sp = Float.max 0. (sp.solve_s -. sp.presolve_s -. sp.certify_s)

(* Mirrors the optimizer's private choice of operators for its greedy
   seed and fallbacks. *)
let operators_of = function
  | Joinopt.Cost_enc.Fixed_operator op -> Dp_opt.Selinger.Fixed op
  | Joinopt.Cost_enc.Choose_operator _ -> Dp_opt.Selinger.Best_per_join
  | Joinopt.Cost_enc.Cout -> Dp_opt.Selinger.Fixed Plan.Hash_join

let run ~(config : O.config) q =
  let time = Common.time in
  let t0 = Common.now () in
  let budget =
    Milp.Budget.create ?limit:config.O.solver.Milp.Solver.bb.BB.time_limit ()
  in
  let (enc, cost), encode_s =
    time (fun () ->
        let enc = Joinopt.Encoding.build ~config:config.O.encoding q in
        (enc, Joinopt.Cost_enc.install ~pm:config.O.pm enc config.O.cost))
  in
  let problem = enc.Joinopt.Encoding.problem in
  let metric = O.exact_metric config.O.cost in
  let mip_start, seed_s =
    time (fun () ->
        let plan, _ =
          Dp_opt.Greedy.plan ~metric ~pm:config.O.pm ~operators:(operators_of config.O.cost) q
        in
        let operators = Array.map Plan.operator_to_string plan.Plan.operators in
        match Milp.Warm_start.assignment_of_plan ~operators problem plan.Plan.order with
        | Ok ws_x -> Some { Milp.Warm_start.ws_x; ws_source = "greedy" }
        | Error _ -> None)
  in
  let outcome, solve_s =
    time (fun () -> Milp.Solver.solve ~params:config.O.solver ~budget ?mip_start problem)
  in
  let bb = outcome.Milp.Solver.result in
  let plan, decode_s =
    time (fun () ->
        match bb.BB.o_x with
        | None -> None
        | Some x -> (
          match
            let order = Joinopt.Encoding.order_of_assignment enc (fun v -> x.(v)) in
            Joinopt.Cost_enc.decode_operators cost (fun v -> x.(v)) order
          with
          | plan when Plan.validate q plan = Ok () ->
            ignore (Cost_model.plan_cost ~metric ~pm:config.O.pm q plan);
            Some plan
          | _ -> None
          | exception Failure _ -> None))
  in
  let wall_s = Common.now () -. t0 in
  (* Re-timed sub-layers, on the solve's own inputs. *)
  let reduced, presolve_s =
    time (fun () ->
        let b = Milp.Budget.create () in
        match Milp.Presolve.run ~budget:(Milp.Budget.phase b Milp.Budget.Presolve) problem with
        | Milp.Presolve.Reduced (r, _) -> Some r
        | Milp.Presolve.Proven_infeasible _ -> None)
  in
  let root_lp_s =
    match reduced with
    | None -> 0.
    | Some r ->
      snd
        (time (fun () ->
             let sf = Milp.Stdform.of_problem r in
             let lb, ub = Milp.Stdform.bounds sf in
             Milp.Simplex.solve ~params:config.O.solver.Milp.Solver.bb.BB.simplex sf ~lb ~ub))
  in
  let certify_s =
    match (bb.BB.o_x, bb.BB.o_objective) with
    | Some x, Some obj ->
      snd
        (time (fun () ->
             let tol = 10. *. config.O.solver.Milp.Solver.bb.BB.simplex.Milp.Simplex.feas_tol in
             let int_tol = 10. *. config.O.solver.Milp.Solver.bb.BB.int_tol in
             ignore (Milp.Certify.check_point ~tol ~int_tol problem (fun v -> x.(v)));
             let trace =
               List.map (fun pr -> (pr.BB.pr_incumbent, pr.BB.pr_bound)) bb.BB.o_trace
             in
             ignore (Milp.Certify.check_trace ~minimize:true trace);
             ignore (Milp.Certify.check_bound ~minimize:true ~objective:obj bb.BB.o_bound)))
    | _ -> 0.
  in
  {
    wall_s;
    encode_s;
    seed_s;
    solve_s;
    decode_s;
    presolve_s;
    root_lp_s;
    certify_s;
    vars = Milp.Problem.num_vars problem;
    constrs = Milp.Problem.num_constrs problem;
    nodes = bb.BB.o_nodes;
    simplex_iters = bb.BB.o_simplex_iters;
    objective = bb.BB.o_objective;
    plan;
  }

(* Per-layer metrics averaged over replayed solves; [untraced] are the
   matching untraced wall times. Coverage is the share of the traced
   solve's wall time its layer spans account for; overhead is how much
   longer the traced solve took than the untraced one. *)
let metrics ~untraced spans =
  let m f = Common.mean (List.map f spans) in
  let nodes = m (fun s -> float s.nodes) in
  let bb = m bb_s and root = m (fun s -> s.root_lp_s) in
  let layers = Common.sum (List.map layers_s spans) in
  let traced = Common.sum (List.map (fun s -> s.wall_s) spans) in
  let wall = Common.sum untraced in
  [
    ("core.encode_s", m (fun s -> s.encode_s), "s");
    ("core.decode_s", m (fun s -> s.decode_s), "s");
    ("core.vars", m (fun s -> float s.vars), "count");
    ("core.constrs", m (fun s -> float s.constrs), "count");
    ("dp_opt.seed_s", m (fun s -> s.seed_s), "s");
    ("milp.presolve_s", m (fun s -> s.presolve_s), "s");
    ("milp.root_lp_s", root, "s");
    ("milp.bb_s", bb, "s");
    ("milp.nodes", nodes, "count");
    ("milp.simplex_iters", m (fun s -> float s.simplex_iters), "count");
    ("milp.node_lp_ms", (if nodes > 0. then 1000. *. Float.max 0. (bb -. root) /. nodes else 0.), "ms");
    ("milp.certify_s", m (fun s -> s.certify_s), "s");
    ("bench.layer_coverage", (if traced > 0. then layers /. traced else 0.), "ratio");
    ("bench.trace_overhead", (if wall > 0. then (traced -. wall) /. wall else 0.), "ratio");
  ]

let zero_metrics =
  List.map (fun (n, _, u) -> (n, 0., u)) (metrics ~untraced:[] [])

(* --- referees --------------------------------------------------------- *)

(* Exhaustive Selinger DP optimum under the optimizer's exact metric. *)
let dp_optimum ~(config : O.config) q =
  match
    Dp_opt.Selinger.optimize ~metric:(O.exact_metric config.O.cost) ~pm:config.O.pm
      ~operators:(operators_of config.O.cost) q
  with
  | Dp_opt.Selinger.Complete r -> Some r.Dp_opt.Selinger.cost
  | Dp_opt.Selinger.Timed_out _ -> None

(* The approximation guarantee the differential oracle checks: a plan's
   true cost lies between the DP optimum and tolerance x optimum (5%
   slack for the staircase's rounding). *)
let referee_problems ~(config : O.config) ~optimum true_cost =
  let tol = Joinopt.Thresholds.tolerance config.O.encoding.Joinopt.Encoding.precision in
  if true_cost < optimum *. (1. -. 1e-9) then
    [ Printf.sprintf "true cost %.6g beats the DP optimum %.6g" true_cost optimum ]
  else if true_cost > optimum *. tol *. 1.05 then
    [ Printf.sprintf "true cost %.6g exceeds %g x DP optimum %.6g" true_cost tol optimum ]
  else []
