(* One caller, closed loop: the next request is sent only when the previous
   reply is complete, so each latency is service latency and never
   generator lateness. *)

open Workload

type thunk = unit -> (Rig.reply, string) result

(* In process: the request value is built before timing starts. *)
let in_process handler step : thunk =
  let request = Rig.request ~cookies:step.cookies ~body:step.body step.meth step.path in
  fun () ->
    match handler request with
    | r -> Ok (Rig.reply_of r)
    | exception e -> Error ("handler raised " ^ Printexc.to_string e)

(* Over the one keep-alive connection: the bytes are serialised before
   timing starts. *)
let over_socket client step : thunk =
  let bytes = Rig.wire_bytes ~cookies:step.cookies ~body:step.body step.meth step.path in
  fun () -> Rig.send client bytes

let call_of prepare : Checks.call = fun step -> prepare step ()

type run = {
  start : float;
  labels : string array;  (* each request's target *)
  latencies : float array;  (* seconds *)
  ends : float array;
  failed : int;
  problems : string list;  (* the first few *)
}

(* Counts one executed step of [step]'s target. *)
let count_step tally step =
  Hashtbl.replace tally step.label (1 + Option.value ~default:0 (Hashtbl.find_opt tally step.label))

(* Runs [count] steps from [next]. Each step's request is prepared before
   its clock starts; [tally] counts the steps run per target. *)
let run ?tally prepare ~count next =
  let latencies = Array.make count 0.0 and ends = Array.make count 0.0 in
  let labels = Array.make count "" in
  let failed = ref 0 and problems = ref [] in
  let note (step : step) msg =
    incr failed;
    if List.length !problems < 5 then
      problems := Printf.sprintf "%s %s: %s" step.label step.path msg :: !problems
  in
  let start = Stats.now () in
  for i = 0 to count - 1 do
    let step = next () in
    Option.iter (fun t -> count_step t step) tally;
    let call = prepare step in
    let t0 = Stats.now () in
    let r = call () in
    let t1 = Stats.now () in
    latencies.(i) <- t1 -. t0;
    ends.(i) <- t1;
    labels.(i) <- step.label;
    match r with
    | Ok r when r.Rig.status = step.expect -> ()
    | Ok r -> note step (Printf.sprintf "status %d, expected %d" r.Rig.status step.expect)
    | Error e -> note step e
  done;
  { start; labels; latencies; ends; failed = !failed; problems = List.rev !problems }

type summary = { throughput_rps : float; p50_ms : float; p99_ms : float }

(* Over the whole timed phase, as one sample: splitting it into blocks and
   taking the median of per-block figures spread more from run to run,
   because the host's speed drifts continuously and the whole phase
   averages that drift best. *)
let summarise r =
  let n = Array.length r.latencies in
  {
    throughput_rps = float_of_int n /. (r.ends.(n - 1) -. r.start);
    p50_ms = Stats.median r.latencies *. 1e3;
    p99_ms = Stats.percentile 99.0 r.latencies *. 1e3;
  }

(* Median latency per target, for reading where p50 and p99 land. *)
let per_target r =
  let by_label = Hashtbl.create 16 in
  Array.iteri
    (fun i l ->
      let earlier = Option.value ~default:[] (Hashtbl.find_opt by_label l) in
      Hashtbl.replace by_label l (r.latencies.(i) :: earlier))
    r.labels;
  List.sort compare
    (Hashtbl.fold (fun l xs acc -> (l, List.length xs, Stats.median_list xs) :: acc) by_label [])
