(* Workload [serve]: the real [joinopt serve --jobs 2] process at its
   default admission settings, driven by one client process over two
   Unix-socket connections with an open-loop schedule: [rate] requests
   per second, due at fixed intervals whatever the server does, each
   timed from its due time.

   Four requests in five re-ask a warmed hot set of 6-table queries
   under table re-declaration (the same tables declared in another
   order, so only the canonical fingerprint makes them hits); one in
   five is a fresh 5-table query that needs an exact solve and competes
   for the two worker domains. A change that speeds the hit path at the
   expense of the miss path (or the reverse) shows as [p50_s] against
   [tail_s].

   Fresh queries have 5 tables, not 6: 6-table solves (mean ~0.5 s,
   up to ~3 s) kept two misses in flight a quarter of the time, hits
   queued behind them, and the tail moved between 1.4 and 2.9 s over
   ten runs of the same schedule. 5-table solves take ~0.03 s (at most
   ~0.3 s), so the tail is the slowest misses' own solve time.

   The hot set and the fresh queries are fixed base instances (the
   server solves the canonical form of each, so reordering their tables
   cannot vary their cost anyway); the seed picks which hot query each
   request re-asks and reorders every request's tables. *)

open Relalg
module O = Joinopt.Optimizer
module J = Service.Json

(* Offered load, well under capacity. Default admission gives each
   connection 50 requests/s, so two connections are refused past 100/s
   (at 160/s a fifth of all requests came back rejected). At 50/s, half
   that capacity, the median hit latency spread 0.245 (quartile distance
   over median) across ten runs, against 0.097 at 16/s: the server's I/O
   loop, its two workers and this client share two CPUs, and sub-ms
   latencies follow how busy they are. *)
let rate = 16.
let fresh_every = 5
let hot_size = 8

(* Goodput counts ok answers within this latency of their due time:
   every hit and most misses make it; slower misses do not. *)
let limit_s = 0.05

(* A run whose generator sent its requests later than this (p99) is
   not a valid open-loop measurement and fails. *)
let late_bound_s = 0.05

let hot_base i = Workload.generate ~seed:(3000 + i) ~shape:Prove.shapes.(i mod 4) ~num_tables:6 ()
let fresh_base i = Workload.generate ~seed:(4000 + i) ~shape:Prove.shapes.(i mod 4) ~num_tables:5 ()

(* The optimizer configuration the server applies to a default request. *)
let server_config =
  O.default_config
  |> O.with_decomp { O.default_decomp with O.dc_policy = O.Dc_auto }
  |> O.with_time_limit 10.

type request = {
  rq_query : Query.t;
  rq_line : string;
  rq_hot : int option;  (** hot-set index, or [None] for a fresh query *)
  rq_base : Query.t;
}

let request_line id q =
  J.to_string ~indent:false
    (J.Obj
       [
         ("op", J.String "optimize");
         ("id", J.String (Printf.sprintf "r%d" id));
         ("query", J.String (Query_file.to_string q));
       ])

(* Fresh queries sit at fixed slots in a fixed order: which misses
   overlap on the two workers decides how long hits queue behind them,
   and with 6-table misses a seeded placement moved tail latency by 40%
   between seeds. *)
let fresh_offset = fresh_every / 2

let schedule ~seed ~n =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let hot = Array.init hot_size hot_base in
  let offset = fresh_offset in
  let nfresh = (n + fresh_every - 1 - offset) / fresh_every in
  let fresh = Array.init nfresh fresh_base in
  let k = ref 0 in
  Array.init n (fun i ->
      let base, hot_ix =
        if i mod fresh_every = offset then begin
          let q = fresh.(!k) in
          incr k;
          (q, None)
        end
        else
          let h = Random.State.int st hot_size in
          (hot.(h), Some h)
      in
      let q = Common.relabel ~permute:true st base in
      { rq_query = q; rq_line = request_line i q; rq_hot = hot_ix; rq_base = base })

(* --- the server process ------------------------------------------------ *)

let run_dir = "perfbench/_run"

type server = { pid : int; path : string }

let servers : server list ref = ref []

let stop_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  servers := List.filter (fun x -> x.pid <> s.pid) !servers

let () = at_exit (fun () -> List.iter stop_server !servers)

let start_server ~exe k =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let path = Printf.sprintf "%s/s%d-%d.sock" run_dir (Unix.getpid ()) k in
  let mode = if k = 0 then Unix.O_TRUNC else Unix.O_APPEND in
  let log = Unix.openfile (run_dir ^ "/serve.log") [ Unix.O_WRONLY; O_CREAT; mode ] 0o644 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; path; "--jobs"; "2" |] Unix.stdin log log
  in
  Unix.close log;
  let s = { pid; path } in
  servers := s :: !servers;
  s

let connect s =
  let t0 = Common.now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Common.now () -. t0 < 10. ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

(* --- the client ------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; mutable outstanding : int }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Complete lines now readable on [c]. *)
let read_lines c =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.pending chunk 0 k;
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)

(* Responses start with {"id":"r<k>" (Protocol.response puts the id
   first), so the loop can file them without a full parse. *)
let id_of_response line =
  try Scanf.sscanf line "{\"id\":\"r%d\"" (fun i -> Some i) with _ -> None

type exchange = {
  due : float array;
  sent : float array;
  answered : float array;
  response : string array;
}

(* Sends [lines.(i)] at [due i], each on the connection with fewer
   requests outstanding, and files the answers until every request is
   answered or [drain] seconds pass after the last is due. *)
let exchange conns ~due lines ~drain =
  let n = Array.length lines in
  let ex =
    { due = Array.init n due; sent = Array.make n nan; answered = Array.make n nan;
      response = Array.make n "" }
  in
  let next = ref 0 and answered = ref 0 in
  let give_up = (if n > 0 then ex.due.(n - 1) else Common.now ()) +. drain in
  let fds = List.map (fun c -> c.fd) conns in
  while !answered < n && Common.now () < give_up do
    let t = Common.now () in
    while !next < n && ex.due.(!next) <= t do
      let c =
        List.fold_left (fun a c -> if c.outstanding < a.outstanding then c else a) (List.hd conns) conns
      in
      write_all c.fd (lines.(!next) ^ "\n");
      ex.sent.(!next) <- Common.now ();
      c.outstanding <- c.outstanding + 1;
      incr next
    done;
    let wait = if !next < n then Float.max 0. (ex.due.(!next) -. Common.now ()) else 0.05 in
    let ready, _, _ =
      try Unix.select fds [] [] wait with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.mem c.fd ready then
          List.iter
            (fun line ->
              match id_of_response line with
              | Some i when i >= 0 && i < n && Float.is_nan ex.answered.(i) ->
                ex.answered.(i) <- Common.now ();
                ex.response.(i) <- line;
                c.outstanding <- c.outstanding - 1;
                incr answered
              | _ -> ())
            (read_lines c))
      conns
  done;
  ex

let open_conns s = List.init 2 (fun _ -> { fd = connect s; pending = Buffer.create 4096; outstanding = 0 })

(* One control request (stats, shutdown) on its own connection. *)
let control s op =
  let c = { fd = connect s; pending = Buffer.create 4096; outstanding = 0 } in
  Fun.protect
    ~finally:(fun () -> Unix.close c.fd)
    (fun () ->
      write_all c.fd (Printf.sprintf "{\"op\":%S,\"id\":\"r0\"}\n" op);
      let rec await acc =
        match acc with
        | line :: _ -> line
        | [] -> await (read_lines c)
      in
      await [])

let shutdown s =
  (try ignore (control s "shutdown") with _ -> ());
  let t0 = Common.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Common.now () -. t0 < 10. ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> stop_server s
    | _ -> servers := List.filter (fun x -> x.pid <> s.pid) !servers
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

(* --- responses ---------------------------------------------------------- *)

type answer = {
  status : string;
  source : string;
  provenance : string;
  degraded : bool;
  plan : string;
  objective : float option;
  true_cost : float option;
}

let parse_answer line =
  match J.parse line with
  | Error _ -> None
  | Ok doc ->
    let str k = Option.bind (J.member k doc) J.to_string_opt |> Option.value ~default:"" in
    let num k = Option.bind (J.member k doc) J.to_float_opt in
    Some
      {
        status = str "status";
        source = str "source";
        provenance = str "provenance";
        degraded = (match J.member "degraded" doc with Some (J.Bool b) -> b | _ -> false);
        plan = str "plan";
        objective = num "objective";
        true_cost = num "true_cost";
      }

(* The server prints plans as "((a HJ b) HJ c)" in the request's table
   names; rebuild the plan in the request's numbering. *)
let plan_of_string q s =
  let index = Hashtbl.create 16 in
  Array.iteri (fun i t -> Hashtbl.replace index t.Catalog.tbl_name i) q.Query.tables;
  let tokens =
    String.split_on_char ' ' s
    |> List.map (fun t -> String.concat "" (String.split_on_char ')' (String.concat "" (String.split_on_char '(' t))))
    |> List.filter (( <> ) "")
  in
  let op = function
    | "HJ" -> Plan.Hash_join
    | "SMJ" -> Plan.Sort_merge_join
    | "BNL" -> Plan.Block_nested_loop
    | o -> failwith ("unknown operator " ^ o)
  in
  let rec go acc ops = function
    | [] -> (List.rev acc, List.rev ops)
    | [ t ] -> go (Hashtbl.find index t :: acc) ops []
    | t :: o :: rest -> go (Hashtbl.find index t :: acc) (op o :: ops) rest
  in
  let order, ops = go [] [] tokens in
  Plan.of_order ~operators:(Array.of_list ops) (Array.of_list order)

let rel_eq a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Checks of one answer; returns the problems and the quality ratio. *)
let check ~optimum ~hot_cost rq a =
  if a.status <> "ok" then ([ Printf.sprintf "status %s" a.status ], None)
  else
    match (try Some (plan_of_string rq.rq_query a.plan) with _ -> None) with
    | None -> ([ "missing or unparsable plan" ], None)
    | Some plan when Plan.validate rq.rq_query plan <> Ok () -> ([ "invalid plan" ], None)
    | Some plan -> (
      let cost =
        Cost_model.plan_cost ~metric:(O.exact_metric server_config.O.cost) ~pm:server_config.O.pm
          rq.rq_query plan
      in
      let reported =
        match a.true_cost with
        | Some tc when rel_eq tc cost -> []
        | Some tc -> [ Printf.sprintf "reported true cost %.17g, recomputed %.17g" tc cost ]
        | None -> [ "no true cost" ]
      in
      (* An answer that is not degraded (solved, or a hit on a solved
         entry) must come from a certified MILP solve: a fallback or
         recovered plan there means the exact path failed. *)
      let certified =
        if a.degraded || a.provenance = O.provenance_to_string `Milp_certified then []
        else [ Printf.sprintf "provenance %s, not a certified MILP plan" a.provenance ]
      in
      let cached =
        match (a.source, hot_cost) with
        | "cache-hit", Some hc when not (rel_eq hc cost) ->
          [ Printf.sprintf "hit returned cost %.17g, cached plan costs %.17g" cost hc ]
        | _ -> []
      in
      (* A degraded answer is the deadline's doing: its plan must be
         valid and honestly costed, but no guarantee applies. *)
      if a.degraded then (reported @ certified @ cached, None)
      else
        ( reported @ certified @ cached @ Replay.referee_problems ~config:server_config ~optimum cost,
          Some (cost /. optimum) ))

(* --- set-up ----------------------------------------------------------- *)

type live = {
  srv : server;
  conns : conn list;
  requests : request array;
  hot_answers : answer array;  (** warm-up answers, per hot index *)
  hot_queries : Query.t array;
}

(* Generate the schedule, start the server, connect, and warm the hot
   set: one request per hot query, relabelled, each sent once the one
   before it is answered, so the warm-up never queues more than one
   request at a time on the server's work pool (its queue high-water
   mark then reflects the measured window). *)
let setup ~exe ~seed ~seconds k =
  let t0 = Common.now () in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let requests = schedule ~seed ~n in
  let st = Random.State.make [| seed; 0x3a7 |] in
  let hot_queries = Array.init hot_size (fun h -> Common.relabel ~permute:true st (hot_base h)) in
  let srv = start_server ~exe k in
  let conns = open_conns srv in
  let hot_answers =
    Array.map
      (fun q ->
        let t = Common.now () in
        let ex = exchange conns ~due:(fun _ -> t) [| request_line 0 q |] ~drain:60. in
        match parse_answer ex.response.(0) with
        | Some a when a.status = "ok" -> a
        | _ -> failwith ("warm-up request failed: " ^ ex.response.(0)))
      hot_queries
  in
  ({ srv; conns; requests; hot_answers; hot_queries }, Common.now () -. t0)

let close_live l =
  List.iter (fun c -> Unix.close c.fd) l.conns;
  shutdown l.srv

(* --- traced extras ---------------------------------------------------- *)

let stats_of s =
  match J.parse (control s "stats") with
  | Ok doc -> Option.value ~default:J.Null (J.member "stats" doc)
  | Error _ -> J.Null

let rec path doc = function
  | [] -> doc
  | k :: rest -> path (Option.value ~default:J.Null (J.member k doc)) rest

let num doc p = match path doc p with J.Int i -> float i | J.Float f -> f | _ -> 0.

(* Re-times the service layers of the hit path in-process, on the run's
   own hit request lines, through public entry points only: the whole
   [Server.handle_line] on a server warmed with the hot set, then
   [Protocol.request_of_line] and [Fingerprint.of_query] alone. Cache
   lookup and response rendering have no public entry of their own, so
   they are reported together as the rest of the hit's service time. *)
let hit_layers l hits =
  let srv = Service.Server.create () in
  Array.iteri
    (fun h q -> ignore (Service.Server.handle_line srv ~client:(Printf.sprintf "w%d" h) (request_line h q)))
    l.hot_queries;
  (* Each layer is timed over the whole batch of hit lines, one span per
     layer, so sub-microsecond calls stay above the clock's resolution.
     One admission bucket per request, so the replay is never
     rate-limited. *)
  let n = float (List.length hits) in
  let per_hit f xs = snd (Common.time (fun () -> List.iter f xs)) /. n in
  let lines = List.mapi (fun i rq -> (Printf.sprintf "h%d" i, rq.rq_line)) hits in
  let w0, m0 = Common.gc_counts () in
  let hit_s = per_hit (fun (client, line) -> ignore (Service.Server.handle_line srv ~client line)) lines in
  let w1, m1 = Common.gc_counts () in
  let parse_s = per_hit (fun rq -> ignore (Service.Protocol.request_of_line rq.rq_line)) hits in
  let parsed =
    List.map
      (fun rq ->
        match Service.Protocol.request_of_line rq.rq_line with
        | Ok { Service.Protocol.rq_op = Service.Protocol.Optimize p; _ } -> p.Service.Protocol.p_query
        | _ -> failwith "hit line does not parse as an optimize request")
      hits
  in
  let fingerprint_s = per_hit (fun q -> ignore (Service.Fingerprint.of_query q)) parsed in
  ( [
      ("service.hit_s", hit_s, "s");
      ("service.parse_s", parse_s, "s");
      ("service.fingerprint_s", fingerprint_s, "s");
      ("service.cache_render_s", Float.max 0. (hit_s -. parse_s -. fingerprint_s), "s");
    ],
    hit_s,
    (w1 -. w0) /. n,
    float (m1 - m0) /. n )

(* Traced: the service layers of the hit path re-timed in-process, the
   misses replayed through the monolithic layers (the canonical forms of
   the first 24 fresh queries, as the server solves them: untraced, then
   traced), and the server's own counters over the measured window. *)
let trace_layers l ~lg ~ok ~lat ~answers ~before ~after ~late_p99 =
  let hits = List.filter (fun r -> r.rq_hot <> None) (Array.to_list l.requests) in
  let hits = List.filteri (fun i _ -> i < 200) hits in
  let hit_metrics, hit_s, hit_words, hit_majors = hit_layers l hits in
  let hit_lat = List.filteri (fun i _ -> l.requests.(i).rq_hot <> None && ok.(i)) lat in
  let fresh =
    List.filter_map
      (fun (i, rq) -> if rq.rq_hot = None then Some (i, rq) else None)
      (List.mapi (fun i r -> (i, r)) (Array.to_list l.requests))
  in
  let fresh = List.filteri (fun k _ -> k < 24) fresh in
  let miss_rows =
    List.map
      (fun (i, rq) ->
        let cq = Service.Fingerprint.canonical_query rq.rq_query in
        let w0, m0 = Common.gc_counts () in
        let r, wall = Common.time (fun () -> O.optimize ~config:server_config cq) in
        let w1, m1 = Common.gc_counts () in
        let sp = Replay.run ~config:server_config cq in
        let served =
          Option.bind answers.(i) (fun a -> if a.source = "solved" then Some a.objective else None)
        in
        let diverged =
          sp.Replay.nodes <> r.O.nodes || sp.Replay.objective <> r.O.objective
          || match served with Some o -> o <> r.O.objective | None -> false
        in
        (wall, sp, w1 -. w0, m1 - m0, diverged))
      fresh
  in
  if List.exists (fun (_, _, _, _, d) -> d) miss_rows then
    Common.record lg ~what:"trace" [ "miss replay diverged from the served solve" ];
  let miss_share = 1. /. float fresh_every in
  let mix hit g = ((1. -. miss_share) *. hit) +. (miss_share *. Common.mean (List.map g miss_rows)) in
  let d p = num after p -. num before p in
  let solves = d [ "latency"; "solve"; "count" ] in
  Layers.assemble
    (Replay.metrics
       ~untraced:(List.map (fun (w, _, _, _, _) -> w) miss_rows)
       (List.map (fun (_, sp, _, _, _) -> sp) miss_rows)
    @ hit_metrics
    @ [
        ( "service.miss_solve_s",
          (if solves > 0. then d [ "latency"; "solve"; "total" ] /. solves else 0.),
          "s" );
        ("service.wait_s", Common.mean hit_lat -. hit_s, "s");
        ( "service.hit_ratio",
          (let acc = d [ "admission"; "accepted" ] in
           if acc > 0. then d [ "answers"; "cache_hits" ] /. acc else 0.),
          "ratio" );
        (* The pool's lifetime mark; the paced warm-up adds at most 1. *)
        ("service.queue_high_water", num after [ "supervision"; "queue_high_water" ], "count");
        ( "service.rejected",
          d [ "admission"; "rejected_rate" ] +. d [ "admission"; "rejected_queue" ]
          +. num after [ "supervision"; "connections_rejected" ],
          "count" );
        ("service.watchdog_kills", num after [ "supervision"; "watchdog_kills" ], "count");
        ("alloc_mwords", mix (hit_words /. 1e6) (fun (_, _, w, _, _) -> w /. 1e6), "Mwords");
        ("gc.major_collections", mix hit_majors (fun (_, _, _, m, _) -> float m), "count");
        ("bench.gen_late_p99_s", late_p99, "s");
      ])

let run ~seed ~seconds ~trace ~exe =
  if exe = "" || not (Sys.file_exists exe) then failwith "serve: --server-exe names no executable";
  let l, s0 = setup ~exe ~seed ~seconds 0 in
  let before = if trace then stats_of l.srv else J.Null in
  let n = Array.length l.requests in
  let t_start = Common.now () +. 0.02 in
  let ex =
    exchange l.conns ~due:(fun i -> t_start +. (float i /. rate)) (Array.map (fun r -> r.rq_line) l.requests)
      ~drain:30.
  in
  let after = if trace then stats_of l.srv else J.Null in
  let rss = Common.vm_hwm_mb (string_of_int l.srv.pid) in
  close_live l;
  (* Two more set-ups after the window, so the median set-up samples the
     machine at both ends of the run (its speed drifts over seconds). *)
  let setup_s =
    Common.median
      (s0
      :: List.init 2 (fun k ->
             let l, s = setup ~exe ~seed ~seconds (k + 1) in
             close_live l;
             s))
  in
  (* Checks, untimed. DP optima are computed on the base queries. *)
  let optima = Hashtbl.create 64 in
  let optimum q =
    match Hashtbl.find_opt optima q with
    | Some o -> o
    | None ->
      let o = match Replay.dp_optimum ~config:server_config q with Some o -> o | None -> nan in
      Hashtbl.replace optima q o;
      o
  in
  let hot_costs = Array.map (fun a -> a.true_cost) l.hot_answers in
  let lg = Common.ledger () in
  let ratios = ref [] in
  let answers = Array.map parse_answer ex.response in
  let ok = Array.make n false in
  Array.iteri
    (fun i rq ->
      let problems, ratio =
        match answers.(i) with
        | None -> ([ "no answer" ], None)
        | Some a ->
          check ~optimum:(optimum rq.rq_base)
            ~hot_cost:(Option.bind rq.rq_hot (fun h -> hot_costs.(h))) rq a
      in
      ok.(i) <- problems = [];
      Printf.printf "req\t%d\t%s\tsent_late=%.6f\tlatency=%.6f\tsource=%s\n" i
        (match rq.rq_hot with Some h -> Printf.sprintf "hot%d" h | None -> "fresh")
        (ex.sent.(i) -. ex.due.(i)) (ex.answered.(i) -. ex.due.(i))
        (match answers.(i) with Some a -> a.source | None -> "-");
      Common.record lg ~what:(Printf.sprintf "request r%d" i) problems;
      Option.iter (fun x -> ratios := x :: !ratios) ratio)
    l.requests;
  let latency i = if ok.(i) then ex.answered.(i) -. ex.due.(i) else infinity in
  let lat = List.init n latency in
  let late = List.init n (fun i -> ex.sent.(i) -. ex.due.(i)) in
  let late_p99 = (Common.sorted late).(min (n - 1) (int_of_float (0.99 *. float n))) in
  if late_p99 > late_bound_s then
    Common.record lg ~what:"generator" [ Printf.sprintf "p99 lateness %.4f s exceeds %g s" late_p99 late_bound_s ];
  let tail, pct, count = Common.tail lat in
  let okn = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok in
  let within = List.length (List.filter (fun x -> x <= limit_s) lat) in
  let sched_s = float n /. rate in
  let finite x = if Float.is_finite x then x else 1e9 in
  Printf.printf "info\tserve\trequests=%d\tok=%d\ttail=p%.1f of n=%d\tlate_p99=%.6f\n" n okn pct count late_p99;
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("p50_s", finite (Common.median lat), "s");
        ("tail_s", finite tail, "s");
        ("throughput_per_s", float okn /. sched_s, "1/s");
        ("goodput_per_s", float within /. sched_s, "1/s");
        ("quality_ratio", Common.geomean !ratios, "ratio");
        ("ok_share", Common.ok_share lg, "ratio");
        ("peak_rss_mb", rss, "MB");
      ]
    else trace_layers l ~lg ~ok ~lat ~answers ~before ~after ~late_p99
  in
  (lg, metrics)
