(* The benchmark's entry point. See NOTES.md for what each workload and
   metric is for.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
     perfbench --smoke

   With --trace 0 the last line of standard output carries the end-to-end
   metrics of a closed-loop timed run; with --trace 1 it carries the
   per-layer metrics of a separate traced run. The exit code is 0 only
   when every response was the expected one and no sentinel leaked. *)

open Workload

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "perfbench --workload <websubmit-fig8|serve-read|serve-mixed> --seed <n> --seconds <s> \
   --trace <0|1>\nperfbench --smoke"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      prerr_endline usage;
      exit 2)
    fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | other :: _ -> die "unexpected argument %S" other
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let int_opt k =
    match opt k with
    | None -> die "--%s is required" k
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "--%s: not a number" k)
  in
  if opt "smoke" <> None then exit (Smoke.run ())
  else
    let kind =
      match opt "workload" with
      | None -> die "--workload is required"
      | Some w -> (
          match List.assoc_opt w kinds with Some k -> k | None -> die "unknown workload %S" w)
    in
    let seed = int_opt "seed" and seconds = int_opt "seconds" in
    let trace = int_opt "trace" <> 0 in
    if seconds < 1 then die "--seconds must be at least 1";
    Rig.pin_enforce ();
    Printf.printf "workload %s, seed %d, %d s nominal, trace %b\n%s\n%s\n" (name kind) seed seconds
      trace (Rig.host_descriptor ()) (Rig.describe_config ());
    Printf.printf
      "data: fig8 websubmit %dx%d (query cost 0 ns); serve websubmit %dx%d durable, youchat %d \
       users/%d messages, voltron %d classes x %d students, portfolio %d candidates\n%!"
      Rig.fig8_students Rig.fig8_questions Rig.serve_students Rig.serve_questions
      Rig.youchat_users Rig.youchat_messages Rig.voltron_classes Rig.voltron_students_per_class
      Rig.portfolio_candidates;
    let r =
      if trace then Layers.traced kind ~seed ~seconds ~smoke:false
      else Timed.run kind ~seed ~seconds ~smoke:false
    in
    let correct = r.Session.failed = 0 in
    print_endline
      (Stats.result_line ~correct ~attempted:r.Session.attempted ~failed:r.Session.failed
         r.Session.metrics);
    exit (if correct then 0 else 1)
