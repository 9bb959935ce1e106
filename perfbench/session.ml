(* A workload's rig as both the timed and the traced run build it, its
   caller, and its output checks. *)

open Workload
module Apps = Sesame_apps

type rig = Fig8_rig of Apps.Websubmit.t | Serve_rig of Rig.serve

let build kind =
  match kind with
  | Fig8 -> Fig8_rig (Rig.fig8_websubmit ())
  | Serve_read | Serve_mixed -> Serve_rig (Rig.serve_rig ())

let teardown = function Fig8_rig _ -> () | Serve_rig s -> Rig.stop_serve s

let in_process_handler = function
  | Fig8_rig ws -> Apps.Websubmit.handle ws
  | Serve_rig s -> s.Rig.handler

let buffers = function Fig8_rig _ -> [] | Serve_rig s -> s.Rig.buffers

(* Runs the workload's output checks against [rig] through [call], and
   compares the final row counts with the seed plus the steps [tally]
   says this rig executed, per target. *)
let check_outputs kind rig (call : Checks.call) ~seed ~tally =
  let o = Checks.outcome () in
  let executed label = Option.value ~default:0 (Hashtbl.find_opt tally label) in
  (match rig with
  | Fig8_rig ws ->
      let db = Apps.Websubmit.database ws in
      Checks.websubmit o call ~seed ~prefix:"" db;
      Checks.expect_count o "websubmit users"
        ~expected:(Rig.fig8_students + executed "register")
        ~got:(Rig.table_length db "users");
      Checks.expect_count o "websubmit answers"
        ~expected:((Rig.fig8_students * Rig.fig8_questions) + 1)
        ~got:(Rig.table_length db "answers")
  | Serve_rig s ->
      let ws_db = Apps.Websubmit.database s.Rig.ws in
      Checks.websubmit o call ~seed ~prefix:"/websubmit" ws_db;
      Checks.youchat o call ~seed;
      Checks.portfolio o call ~seed (Apps.Portfolio.database s.portfolio);
      Checks.voltron o call ~seed (Apps.Voltron.database s.voltron);
      Checks.expect_count o "websubmit users" ~expected:Rig.serve_students
        ~got:(Rig.table_length ws_db "users");
      Checks.expect_count o "websubmit answers"
        ~expected:((Rig.serve_students * Rig.serve_questions) + executed "websubmit-submit" + 1)
        ~got:(Rig.table_length ws_db "answers");
      Checks.expect_count o "youchat messages"
        ~expected:(Rig.youchat_messages + executed "youchat-send" + 1)
        ~got:(Rig.table_length (Apps.Youchat.database s.youchat) "messages"));
  Printf.printf "checks (%s): %d attempted, %d failed\n" (name kind) o.attempted o.failed;
  List.iter (fun p -> Printf.printf "  !! %s\n" p) (List.rev o.problems);
  o

(* The caller a timed run uses: in process for Fig. 8, the one keep-alive
   connection for the serve workloads. *)
let caller rig =
  match rig with
  | Fig8_rig _ -> (Loop.in_process (in_process_handler rig), ignore)
  | Serve_rig s ->
      let client = Rig.client (Sesame_server.port s.Rig.server) in
      (Loop.over_socket client, fun () -> Rig.close_client client)

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
let peak_heap_mb () = mib (Gc.quick_stat ()).Gc.top_heap_words

type result = { metrics : Stats.metric list; attempted : int; failed : int }
