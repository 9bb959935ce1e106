(* Smoke mode: every workload with tiny counts, timed and traced. It
   checks that each end-to-end and per-layer metric BENCHMARK.json
   declares is emitted under its unit (and nothing else is), that every
   output check passed, and that each span file is well formed. *)

(* (name, unit) pairs of one metric list of BENCHMARK.json, which keeps
   one metric object per line. *)
let declared section =
  let ic = open_in "BENCHMARK.json" in
  let rec scan inside acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
        let trimmed = String.trim line in
        if (not inside) && String.length trimmed > 0
           && String.starts_with ~prefix:(Printf.sprintf "\"%s\"" section) trimmed
        then scan true acc
        else if inside && String.starts_with ~prefix:"]" trimmed then List.rev acc
        else if inside then
          match Scanf.sscanf trimmed "{\"name\": %S, \"unit\": %S" (fun n u -> (n, u)) with
          | pair -> scan true (pair :: acc)
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan true acc
        else scan false acc
  in
  let pairs = scan false [] in
  close_in ic;
  pairs

let run () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let compare_metrics label declared (r : Session.result) =
    let emitted = List.map (fun m -> (m.Stats.name, m.Stats.unit_)) r.Session.metrics in
    if declared = [] then problem "%s: BENCHMARK.json declares no metrics" label;
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) emitted) then problem "%s: %s (%s) not emitted" label n u)
      declared;
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) declared) then problem "%s: %s (%s) not declared" label n u)
      emitted;
    if r.Session.failed > 0 then problem "%s: %d of %d failed" label r.failed r.attempted
  in
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun (name, kind) ->
      Printf.printf "smoke: %s\n%!" name;
      compare_metrics (name ^ " timed") e2e (Timed.run kind ~seed:1 ~seconds:1 ~smoke:true);
      compare_metrics (name ^ " traced") layers (Layers.traced kind ~seed:1 ~seconds:1 ~smoke:true);
      let spans = Filename.concat Rig.work_dir (Printf.sprintf "spans-%s-1.jsonl" name) in
      match Span.validate spans with
      | Ok n -> Printf.printf "smoke: %s: %d spans well formed\n%!" spans n
      | Error e -> problem "%s" e)
    Workload.kinds;
  List.iter (fun p -> Printf.printf "smoke: FAIL %s\n" p) (List.rev !problems);
  Printf.printf "smoke: %s\n" (if !problems = [] then "ok" else "failed");
  if !problems = [] then 0 else 1
