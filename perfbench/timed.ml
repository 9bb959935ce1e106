(* The timed run (--trace 0): set-up timed several times, then a warm-up
   and a timed closed-loop phase of fixed request counts, then the output
   checks. End-to-end metrics come only from here, never from a traced run. *)

open Workload
open Session

(* Set-up repetitions per run: a serving rig sets up in tens of
   milliseconds, with fsync-bound noise, so it is repeated more. *)
let setup_reps = function Fig8 -> 15 | Serve_read | Serve_mixed -> 25

let run kind ~seed ~seconds ~smoke =
  Rig.pin_enforce ();
  let reps = if smoke then 1 else setup_reps kind in
  let first = first_request kind in
  (* Set-up is timed [reps] times, each from the first app construction to
     the first request answered; the last rig is the one measured. *)
  let rec setups i acc =
    let t0 = Stats.now () in
    let rig = build kind in
    let prepare, close = caller rig in
    let first_ok =
      match Loop.call_of prepare first with Ok r -> r.Rig.status = 200 | Error _ -> false
    in
    let dt = Stats.now () -. t0 in
    if not first_ok then Rig.fail "set-up: the first request failed";
    if i = reps then (rig, prepare, close, List.rev (dt :: acc))
    else begin
      close ();
      teardown rig;
      setups (i + 1) (dt :: acc)
    end
  in
  let rig, prepare, close, setup_times = setups 1 [] in
  Fun.protect
    ~finally:(fun () ->
      close ();
      teardown rig)
    (fun () ->
      let buffers = buffers rig in
      let count = if smoke then 5 * 12 else timed_count kind ~seconds in
      let warm = if smoke then 12 else warmup_count kind ~seconds in
      let tally = Hashtbl.create 16 in
      let heap_mb () = mib (Gc.quick_stat ()).Gc.heap_words in
      Printf.printf "heap after set-up: %.1f MiB (top %.1f MiB)\n" (heap_mb ()) (peak_heap_mb ());
      let w = Loop.run ~tally prepare ~count:warm (stream kind ~seed ~buffers ~tag:1) in
      let r = Loop.run ~tally prepare ~count (stream kind ~seed ~buffers ~tag:2) in
      let s = Loop.summarise r in
      Printf.printf "heap after timed phase: %.1f MiB (top %.1f MiB)\n" (heap_mb ())
        (peak_heap_mb ());
      List.iter (fun p -> Printf.printf "  !! %s\n" p) (w.problems @ r.problems);
      let o = check_outputs kind rig (Loop.call_of prepare) ~seed ~tally in
      let setup_s = Stats.median_list setup_times in
      Printf.printf "set-up: %s s (median of %d)\n"
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
        (List.length setup_times);
      Printf.printf "timed: %d requests after %d warm-up in %.2f s; %d samples beyond p99\n" count
        warm
        (r.ends.(count - 1) -. r.start)
        (Stats.beyond 99.0 r.latencies);
      List.iter
        (fun (l, n, m) ->
          Printf.printf "  target %-18s %6d requests, median %.4f ms\n" l n (m *. 1e3))
        (Loop.per_target r);
      {
        metrics =
          [
            Stats.metric "setup_s" "s" setup_s;
            Stats.metric "throughput_rps" "1/s" s.throughput_rps;
            Stats.metric "p50_ms" "ms" s.p50_ms;
            Stats.metric "p99_ms" "ms" s.p99_ms;
            Stats.metric "peak_heap_mb" "MiB" (peak_heap_mb ());
          ];
        attempted = reps + warm + count + o.attempted;
        failed = w.failed + r.failed + o.failed;
      })

