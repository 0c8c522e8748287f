(* Measurement plumbing shared by the workloads: the clock, summary
   statistics, process memory, allocation counters, the seeded
   relabelling of base queries, and the result line. *)

open Relalg

let now = Milp.Budget.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)
let sum l = List.fold_left ( +. ) 0. l

(* The highest percentile that still has at least ten samples beyond
   it: with n samples that is the (n-10)th smallest. Returns
   (value, percentile, n); with ten samples or fewer, the maximum. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, 0., 0)
  else if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float (n - 10) /. float n, n)

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float (List.length l))

(* Peak resident set (VmHWM) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
              kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let self_hwm_mb () = vm_hwm_mb "self"

(* Words allocated (minor + direct major) and major collections so far,
   over every domain of the process, joined ones included. The minor
   collection first makes the count exact: without it the runtime
   accounts the minor heap only when it is collected. *)
let gc_counts () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

(* A seeded re-declaration of a base query: its tables reordered (with
   [permute]) and renamed [prefix]0, [prefix]1, ... (with [prefix]).
   Reordering changes the MILP's variable order and so the branch &
   bound search; renaming alone leaves the solver's work unchanged. The
   service identifies a table by its name, so only a reordering that
   keeps the names re-declares the same query. *)
let relabel ?(permute = false) ?prefix st q =
  let n = Query.num_tables q in
  let perm = Array.init n (fun i -> i) in
  if permute then
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
  let q = Query.permute_tables q ~perm in
  match prefix with
  | None -> q
  | Some prefix ->
    let tables =
      Array.to_list
        (Array.mapi
           (fun i t -> { t with Catalog.tbl_name = Printf.sprintf "%s%d" prefix i })
           q.Query.tables)
    in
    Query.create ~predicates:(Array.to_list q.Query.predicates)
      ~correlations:(Array.to_list q.Query.correlations) ~output_columns:q.Query.output_columns
      tables

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The measured loop of the closed-loop workloads: whole passes over a
   fixed pool, one per [nominal_pass_s] of window (at least one), so the
   operation count depends on the window alone and every run measures
   the same operations whatever the machine's speed. [pass p] gives the
   inputs of pass [p]; [solve] runs and times one. Returns the results
   in order.

   The run's first set-up precedes the loop; [resetup] repeats it
   [setups - 1] times at even intervals through the operations (with
   fewer operations than that, several after one), the last after
   them, so the set-ups whose median is [setup_s] sample the machine
   across the run and not only at its start: the reference machine's
   speed (a shared 2-vCPU VM) drifted by 10-40% over seconds, and
   one-second set-ups of one run by up to 1.6x. *)
let passes ~seconds ~nominal_pass_s ~pass ~solve ~setups ~resetup =
  let inputs = Array.concat (List.init (max 1 (Float.to_int (seconds /. nominal_pass_s))) pass) in
  let n = Array.length inputs in
  let ops = ref [] in
  Array.iteri
    (fun i x ->
      ops := solve x :: !ops;
      for j = 1 to setups - 1 do
        if ((j * n) + setups - 2) / (setups - 1) = i + 1 then resetup ()
      done)
    inputs;
  List.rev !ops

(* The set-up times of a run, in the order they ran, for its info line. *)
let setups_field l = String.concat "," (List.map (Printf.sprintf "%.3f") l)

(* Prints the per-run result line: every metric with all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Failure ledger of one run: only the kinds of failure the benchmark
   counts (missing/invalid plan, uncertified plan, referee violation,
   error, rejection) are recorded; a deadline is never one. *)
type ledger = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let ledger () = { attempted = 0; failed = 0; notes = [] }

(* One operation's checks: it failed if any problem was found. *)
let record lg ~what problems =
  lg.attempted <- lg.attempted + 1;
  if problems <> [] then begin
    lg.failed <- lg.failed + 1;
    if List.length lg.notes < 20 then
      lg.notes <- Printf.sprintf "%s: %s" what (String.concat "; " problems) :: lg.notes
  end

let ok_share lg = if lg.attempted = 0 then 0. else float (lg.attempted - lg.failed) /. float lg.attempted
