(* What a workload runs against: the apps, their seeds, the benchmark's own
   path mux, the server and the caller. Every setting is pinned here, so
   the benchmark never reads PARALLEL_DOMAINS or SERVE_* from the
   environment. *)

module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Apps = Sesame_apps
module Sbx = Sesame_sandbox
module Durable = Sesame_wal.Durable

let fail fmt = Printf.ksprintf failwith fmt
let ok_or what = function Ok v -> v | Error m -> fail "%s: %s" what m

(* ------------------------------------------------------------------ *)
(* Pinned configuration *)

(* Enforce's defaults, set explicitly. No fan-out pool: the caller and at
   most one server handler domain are the only busy domains. *)
let pin_enforce () =
  C.Enforce.set_pool None;
  C.Enforce.set_memoization true;
  C.Enforce.set_precise_invalidation true;
  C.Enforce.set_elision true;
  C.Enforce.set_pushdown true

let fig8_students = 100
let fig8_questions = 100
let serve_students = 20
let serve_questions = 5
let youchat_users = 20
let youchat_messages = 200
let voltron_classes = 2
let voltron_students_per_class = 4
let portfolio_candidates = 10
let admin = "user=admin@school.edu"

let server_config =
  {
    Sesame_server.host = "127.0.0.1";
    port = 0;
    domains = 1;
    backlog = 16;
    max_connections = 64;
    (* Above any run's request count, so the one keep-alive connection is
       never recycled mid-run. *)
    max_requests_per_connection = 100_000_000;
    idle_timeout_s = 60.0;
    limits = Http.Wire.default_limits;
    default_deadline_ms = 5_000;
    max_deadline_ms = 30_000;
    retry_after_s = 1;
    health_paths = [ "/health" ];
    shed_mutations_at = 48;
    autoscale = None;
  }

let describe_config () =
  let c = server_config in
  Printf.sprintf
    "server: %d handler domain, autoscale off, %d max connections, %d requests/connection, \
     idle %.0fs, deadline %dms (max %dms), mutations shed at %d; enforce: pool none, \
     memoization %b, precise invalidation %b, elision %b, pushdown %b; websubmit durable: \
     fsync every commit, checkpoint every 256, sandbox pool 1 arena"
    c.Sesame_server.domains c.max_connections c.max_requests_per_connection c.idle_timeout_s
    c.default_deadline_ms c.max_deadline_ms c.shed_mutations_at (C.Enforce.memoization ())
    (C.Enforce.precise_invalidation ()) (C.Enforce.elision ()) (C.Enforce.pushdown_enabled ())

let host_descriptor () =
  let nproc =
    try
      let ic = Unix.open_process_in "nproc" in
      let line = try String.trim (input_line ic) with End_of_file -> "?" in
      ignore (Unix.close_process_in ic);
      line
    with Unix.Unix_error _ | Sys_error _ -> "?"
  in
  Printf.sprintf "host: nproc %s, recommended domains %d, OCaml %s, word %d bits" nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size

(* ------------------------------------------------------------------ *)
(* Requests and replies *)

type reply = { status : int; headers : Http.Headers.t; body : string }

let header_list ~cookies ~body =
  (if cookies = "" then [] else [ ("Cookie", cookies) ])
  @ if body = "" then [] else [ ("Content-Type", "application/x-www-form-urlencoded") ]

let request ?(cookies = "") ?(body = "") meth path =
  Http.Request.make ~headers:(Http.Headers.of_list (header_list ~cookies ~body)) ~body meth path

let wire_bytes ?(cookies = "") ?(body = "") meth path =
  Http.Wire.write_request
    ~headers:(Http.Headers.of_list (header_list ~cookies ~body))
    ~body ~host:"127.0.0.1" meth path

let reply_of (r : Http.Response.t) =
  { status = Http.Status.to_int r.Http.Response.status; headers = r.headers; body = r.body }

let health = Http.Response.text "ok"

(* The benchmark's mux: /health answers 200 without touching an app;
   /<app>/<rest> hands <rest> to that app's own router. *)
let mux routes (request : Http.Request.t) =
  let path = request.Http.Request.path in
  let n = String.length path in
  if path = "/health" then health
  else
    let app, rest =
      match String.index_from_opt path (min 1 n) '/' with
      | Some i when n > 1 -> (String.sub path 1 (i - 1), String.sub path i (n - i))
      | Some _ | None -> (String.sub path (min 1 n) (n - min 1 n), "/")
    in
    match List.assoc_opt app routes with
    | Some handle -> handle { request with Http.Request.path = rest }
    | None -> Http.Response.error Http.Status.Not_found "no such app"

(* ------------------------------------------------------------------ *)
(* The Fig. 8 WebSubmit: in memory, 100 x 100, no modelled DB cost. *)

let fig8_websubmit () =
  let ws = ok_or "websubmit" (Apps.Websubmit.create ~query_cost_ns:0 ()) in
  ok_or "websubmit seed"
    (Apps.Websubmit.seed ws ~students:fig8_students ~questions:fig8_questions);
  let r = Apps.Websubmit.handle ws (request ~cookies:admin Http.Meth.POST "/retrain") in
  if Http.Status.to_int r.Http.Response.status <> 200 then fail "priming retrain: %s" r.body;
  ws

let fig8_baseline () =
  let b = ok_or "baseline" (Apps.Websubmit_baseline.create ~query_cost_ns:0 ()) in
  ok_or "baseline seed"
    (Apps.Websubmit_baseline.seed b ~students:fig8_students ~questions:fig8_questions);
  let r = Apps.Websubmit_baseline.handle b (request ~cookies:admin Http.Meth.POST "/retrain") in
  if Http.Status.to_int r.Http.Response.status <> 200 then fail "baseline retrain: %s" r.body;
  b

(* ------------------------------------------------------------------ *)
(* Files: everything the run writes stays under _perfbench/ in the
   checkout it runs from. *)

let work_dir = "_perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let dir =
      Filename.concat work_dir
        (Printf.sprintf "tmp/%s-%d-%d" label (Unix.getpid ()) !n)
    in
    rm_rf dir;
    mkdir_p dir;
    dir

(* ------------------------------------------------------------------ *)
(* Server and one keep-alive client connection *)

let start_server handler =
  ok_or "server start"
    (Sesame_server.start ~config:server_config
       ~on_error:(fun m -> prerr_endline ("perfbench: handler error: " ^ m))
       ~handler ())

type client = {
  mutable fd : Unix.file_descr option;
  mutable src : Http.Wire.source option;
  port : int;
}

let client port = { fd = None; src = None; port }

let close_client c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  c.src <- None

let connection c =
  match (c.fd, c.src) with
  | Some fd, Some src -> (fd, src)
  | _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port));
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0
       with e ->
         Unix.close fd;
         raise e);
      let buf = Bytes.create 65536 in
      let src =
        Http.Wire.source_of_fun (fun () ->
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ""
            | n -> Bytes.sub_string buf 0 n)
      in
      c.fd <- Some fd;
      c.src <- Some src;
      (fd, src)

let send c bytes =
  match
    let fd, src = connection c in
    let len = String.length bytes in
    let rec write off =
      if off < len then write (off + Unix.write_substring fd bytes off (len - off))
    in
    write 0;
    Http.Wire.read_response src
  with
  | `Response (status, headers, body) ->
      if Http.Headers.get headers "Connection" = Some "close" then close_client c;
      Ok { status; headers; body }
  | `Eof ->
      close_client c;
      Error "connection closed"
  | `Error e ->
      close_client c;
      Error (Http.Wire.error_message e)
  | exception (Unix.Unix_error (e, _, _)) ->
      close_client c;
      Error (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* The serving rig: all four apps behind the mux on one handler domain.
   WebSubmit is a durable store (strict default config) in a fresh
   directory, hardened as the serve experiment does it with its sandbox
   pool sized to one arena. *)

type serve = {
  ws : Apps.Websubmit.t;
  store : Durable.t;
  hardening : Apps.Websubmit.hardening;
  youchat : Apps.Youchat.t;
  voltron : Apps.Voltron.t;
  portfolio : Apps.Portfolio.t;
  handler : Http.Request.t -> Http.Response.t;
  server : Sesame_server.t;
  dir : string;
  buffers : (int * int) list;  (* voltron (buffer id, class id) *)
}

let voltron_buffers voltron =
  match
    Db.Database.exec (Apps.Voltron.database voltron) "SELECT id, class_id FROM buffers"
      ~params:[]
  with
  | Ok (Db.Database.Rows { rows; _ }) ->
      List.sort compare
        (List.map (fun r -> (Db.Value.to_int r.(0), Db.Value.to_int r.(1))) rows)
  | Ok (Db.Database.Affected _) | Error _ -> fail "voltron buffers unreadable"

let serve_rig () =
  let hardening =
    ok_or "harden" (Apps.Websubmit.harden ~pool_capacity:1 ~max_pool_capacity:1 ())
  in
  let dir = fresh_dir "websubmit" in
  let ws, store =
    ok_or "websubmit durable" (Apps.Websubmit.create_durable ~hardening ~data_dir:dir ())
  in
  ok_or "websubmit seed"
    (Apps.Websubmit.seed ws ~students:serve_students ~questions:serve_questions);
  let youchat = ok_or "youchat" (Apps.Youchat.create ()) in
  ok_or "youchat seed" (Apps.Youchat.seed youchat ~users:youchat_users ~messages:youchat_messages);
  let voltron = ok_or "voltron" (Apps.Voltron.create ()) in
  ok_or "voltron seed"
    (Apps.Voltron.seed voltron ~classes:voltron_classes
       ~students_per_class:voltron_students_per_class);
  let portfolio = ok_or "portfolio" (Apps.Portfolio.create ()) in
  ok_or "portfolio seed" (Apps.Portfolio.seed portfolio ~candidates:portfolio_candidates);
  let handler =
    mux
      [
        ("websubmit", Apps.Websubmit.handle ws);
        ("youchat", Apps.Youchat.handle youchat);
        ("voltron", Apps.Voltron.handle voltron);
        ("portfolio", Apps.Portfolio.handle portfolio);
      ]
  in
  (* Priming: a trained model for the predict reads. *)
  let r = handler (request ~cookies:admin Http.Meth.POST "/websubmit/retrain") in
  if Http.Status.to_int r.Http.Response.status <> 200 then fail "priming retrain: %s" r.body;
  let buffers = voltron_buffers voltron in
  let server = start_server handler in
  { ws; store; hardening; youchat; voltron; portfolio; handler; server; dir; buffers }

let stop_serve s =
  Sesame_server.stop s.server;
  ignore (Durable.close s.store);
  rm_rf s.dir

let table_length db name =
  match Db.Database.table db name with Some t -> Db.Table.length t | None -> 0
