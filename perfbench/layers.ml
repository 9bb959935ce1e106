(* The traced run (--trace 1). It builds the workload's rig as the timed
   run does, replays the workload's seeded sequence in process twice
   (untraced, then with a span around each layer call), serves the same
   mix over one connection, and then runs direct probes of each layer's
   public functions. Every per-layer metric is emitted on every workload:
   the Fig. 8 pair (Sesame and baseline WebSubmit at 100 x 100) and the
   serving rig are built when the workload's own rig is not one of them.
   Spans are written to _perfbench/spans-<workload>-<seed>.jsonl. *)

open Workload
module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Apps = Sesame_apps
module Sbx = Sesame_sandbox
module Durable = Sesame_wal.Durable

let us s = s *. 1e6
let ms s = s *. 1e3
let median_of name = Stats.median_list (Span.durations name)

(* Replay counts: whole Fig. 8 cycles, whole serve blocks. *)
let replay_count kind ~smoke =
  match kind with
  | Fig8 -> if smoke then 10 else 150
  | Serve_read | Serve_mixed -> if smoke then 48 else 2400

(* One request as the server sees it: parse the wire bytes, handle, write
   the response. *)
let serve_in_process ?req handler bytes =
  let wrap name f = match req with Some req -> Span.with_ ~req name f | None -> f () in
  match wrap "http.parse" (fun () -> Http.Wire.read_request (Http.Wire.source_of_string bytes)) with
  | `Request incoming ->
      let response = wrap "apps.handle" (fun () -> handler incoming.Http.Wire.request) in
      ignore (wrap "http.write" (fun () -> Http.Wire.write_response ~keep_alive:true response));
      Ok (Http.Status.to_int response.Http.Response.status)
  | `Eof -> Error "parse: eof"
  | `Error e -> Error ("parse: " ^ Http.Wire.error_message e)

let statements dbs = List.fold_left (fun n db -> n + Db.Database.query_count db) 0 dbs

let rig_dbs = function
  | Session.Fig8_rig ws -> [ Apps.Websubmit.database ws ]
  | Session.Serve_rig s ->
      [
        Apps.Websubmit.database s.Rig.ws;
        Apps.Youchat.database s.youchat;
        Apps.Voltron.database s.voltron;
        Apps.Portfolio.database s.portfolio;
      ]

let traced kind ~seed ~seconds:_ ~smoke =
  Rig.pin_enforce ();
  Span.reset ();
  let rig = Session.build kind in
  (* The Fig. 8 pair and the serving rig, shared with the workload's own
     rig where it is one of them. *)
  let ws8 =
    match rig with Session.Fig8_rig ws -> ws | Session.Serve_rig _ -> Rig.fig8_websubmit ()
  in
  let baseline = Rig.fig8_baseline () in
  let serve = match rig with Session.Serve_rig s -> s | Session.Fig8_rig _ -> Rig.serve_rig () in
  (* The workload's own server: the serving rig's for the serve workloads,
     and one over the Fig. 8 handler (with the same /health path) for
     websubmit-fig8. *)
  let handler = Session.in_process_handler rig in
  let own_server =
    match rig with
    | Session.Serve_rig _ -> None
    | Session.Fig8_rig ws ->
        Some
          (Rig.start_server (fun r ->
               if r.Http.Request.path = "/health" then Rig.health else Apps.Websubmit.handle ws r))
  in
  let server = match own_server with Some s -> s | None -> serve.Rig.server in
  let client = Rig.client (Sesame_server.port server) in
  let failures = ref 0 and attempted = ref 0 and tally = Hashtbl.create 16 in
  let note_failure what =
    incr failures;
    Printf.printf "  !! %s\n" what
  in
  let expect step = function
    | Ok status when status = step.expect -> ()
    | Ok status -> note_failure (Printf.sprintf "%s %s: status %d" step.label step.path status)
    | Error e -> note_failure (Printf.sprintf "%s %s: %s" step.label step.path e)
  in
  (* Steps run against the workload's own rig, for its final counts. *)
  let own steps = Array.iter (Loop.count_step tally) steps in
  let buffers = Session.buffers rig in
  let n = replay_count kind ~smoke in
  let bytes_of s = Rig.wire_bytes ~cookies:s.cookies ~body:s.body s.meth s.path in
  Fun.protect
    ~finally:(fun () ->
      Rig.close_client client;
      Option.iter Sesame_server.stop own_server;
      (match rig with Session.Fig8_rig _ -> Rig.stop_serve serve | Session.Serve_rig _ -> ());
      Session.teardown rig)
    (fun () ->
      (* 1. In-process replay, untraced and traced, of two same-shaped
         sequences (distinct generated keys, so writes do not collide).
         The passes alternate block by block, each going first in turn, so
         drift lands on both; counters are summed over traced blocks only. *)
      let plain = sequence kind ~seed ~buffers ~tag:3 n in
      let traced_steps = sequence kind ~seed ~buffers ~tag:4 n in
      own plain;
      own traced_steps;
      attempted := !attempted + (2 * n);
      let plain_bytes = Array.map bytes_of plain in
      let traced_bytes = Array.map bytes_of traced_steps in
      let dbs = rig_dbs rig in
      let untraced_s = ref 0.0 and traced_s = ref 0.0 in
      let statements_d = ref 0 and hits = ref 0 and misses = ref 0 in
      let elisions = ref 0 and pushdowns = ref 0 in
      let minor_words = ref 0.0 and minor_collections = ref 0 and major_collections = ref 0 in
      let inproc_by_label = Hashtbl.create 16 in
      let block = match kind with Fig8 -> 5 | Serve_read | Serve_mixed -> 12 in
      let untraced_block lo hi =
        let t0 = Stats.now () in
        for i = lo to hi - 1 do
          expect plain.(i) (serve_in_process handler plain_bytes.(i))
        done;
        untraced_s := !untraced_s +. (Stats.now () -. t0)
      in
      let traced_block lo hi =
        let q0 = statements dbs and e0 = C.Enforce.stats () and g0 = Gc.quick_stat () in
        let t0 = Stats.now () in
        for i = lo to hi - 1 do
          let req = i + 1 in
          let r, dt =
            Span.timed ~req "request" (fun () -> serve_in_process ~req handler traced_bytes.(i))
          in
          expect traced_steps.(i) r;
          let label = traced_steps.(i).label in
          Hashtbl.replace inproc_by_label label
            (dt :: Option.value ~default:[] (Hashtbl.find_opt inproc_by_label label))
        done;
        traced_s := !traced_s +. (Stats.now () -. t0);
        let g1 = Gc.quick_stat () and e1 = C.Enforce.stats () in
        statements_d := !statements_d + statements dbs - q0;
        hits := !hits + e1.C.Enforce.hits - e0.C.Enforce.hits;
        misses := !misses + e1.C.Enforce.misses - e0.C.Enforce.misses;
        elisions := !elisions + e1.C.Enforce.elisions - e0.C.Enforce.elisions;
        pushdowns := !pushdowns + e1.C.Enforce.pushdowns - e0.C.Enforce.pushdowns;
        minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
        minor_collections := !minor_collections + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections := !major_collections + g1.Gc.major_collections - g0.Gc.major_collections
      in
      Gc.compact ();
      for b = 0 to ((n + block - 1) / block) - 1 do
        let lo = b * block and hi = min n ((b + 1) * block) in
        if b land 1 = 0 then begin
          untraced_block lo hi;
          traced_block lo hi
        end
        else begin
          traced_block lo hi;
          untraced_block lo hi
        end
      done;
      let per_req x = float_of_int x /. float_of_int n in
      let hits = !hits and misses = !misses in
      (* 2. The same mix over the connection, then the health path. *)
      attempted := !attempted + n;
      let st0 = Sesame_server.stats server in
      let sock =
        Loop.run ~tally (Loop.over_socket client) ~count:n (stream kind ~seed ~buffers ~tag:5)
      in
      (* What serving adds: socket p50 minus traced in-process p50, over
         the reads whose in-process median is under 1 ms. Heavier targets
         would bury a tens-of-microseconds difference in their own
         run-to-run noise (for websubmit-fig8 only Predict qualifies). *)
      let light =
        Hashtbl.fold
          (fun label ds acc ->
            let step = Array.find_opt (fun s -> s.label = label) traced_steps in
            match step with
            | Some s when (not (is_write s)) && Stats.median_list ds < 1e-3 -> label :: acc
            | Some _ | None -> acc)
          inproc_by_label []
      in
      let inproc_light =
        Array.of_list (List.concat_map (fun l -> Hashtbl.find inproc_by_label l) light)
      in
      let socket_light =
        Array.of_list
          (List.filteri (fun i _ -> List.mem sock.Loop.labels.(i) light)
             (Array.to_list sock.Loop.latencies))
      in
      let health = Rig.wire_bytes Http.Meth.GET "/health" in
      let pings = if smoke then 20 else 1000 in
      attempted := !attempted + pings;
      for _ = 1 to pings do
        match Span.with_ "server.health" (fun () -> Rig.send client health) with
        | Ok r when r.Rig.status = 200 -> ()
        | Ok r -> note_failure (Printf.sprintf "/health: status %d" r.status)
        | Error e -> note_failure ("/health: " ^ e)
      done;
      Rig.close_client client;
      let st1 = Sesame_server.stats server in
      (* 3. Routing: the same predict read through the router and through
         the endpoint function. *)
      let route_reps = if smoke then 10 else 400 in
      let route_ws, prefix =
        match rig with
        | Session.Fig8_rig ws -> (ws, "")
        | Session.Serve_rig s -> (s.Rig.ws, "/websubmit")
      in
      let routed = Rig.request ~cookies:Rig.admin Http.Meth.GET (prefix ^ "/predict/7") in
      let direct = Rig.request ~cookies:Rig.admin Http.Meth.GET "/predict/7" in
      for _ = 1 to route_reps do
        ignore (Span.with_ "route.handle" (fun () -> handler routed));
        ignore (Span.with_ "route.direct" (fun () -> Apps.Websubmit.predict_grades route_ws direct))
      done;
      attempted := !attempted + (2 * route_reps);
      (* 4. Per-endpoint Fig. 8 medians, Sesame and baseline, interleaved
         cycle by cycle. *)
      let cycles = if smoke then 1 else 15 in
      let fig8_steps = sequence Fig8 ~seed ~buffers:[] ~tag:6 (5 * cycles) in
      (match rig with Session.Fig8_rig _ -> own fig8_steps | Session.Serve_rig _ -> ());
      attempted := !attempted + (2 * Array.length fig8_steps);
      Array.iter
        (fun step ->
          let req = Rig.request ~cookies:step.cookies ~body:step.body step.meth step.path in
          let status r = Ok (Http.Status.to_int r.Http.Response.status) in
          expect step
            (status
               (Span.with_ ("websubmit." ^ step.label) (fun () -> Apps.Websubmit.handle ws8 req)));
          expect step
            (status
               (Span.with_ ("baseline." ^ step.label) (fun () ->
                    Apps.Websubmit_baseline.handle baseline req))))
        fig8_steps;
      (* 5. The serve mixes' read and write targets in process, and the
         WAL's work per write. *)
      let probe_blocks = if smoke then 2 else 30 in
      let mixed =
        sequence Serve_mixed ~seed ~buffers:serve.Rig.buffers ~tag:7 (12 * probe_blocks)
      in
      (match rig with Session.Serve_rig _ -> own mixed | Session.Fig8_rig _ -> ());
      attempted := !attempted + Array.length mixed;
      (* A checkpoint resets the WAL's counters; one now keeps the next
         automatic checkpoint (every 256 records) out of the probe. *)
      (match Durable.checkpoint serve.Rig.store with
      | Ok () -> ()
      | Error e -> note_failure ("checkpoint: " ^ e));
      let c0 = Durable.commit_stats serve.Rig.store in
      Array.iter
        (fun step ->
          let req = Rig.request ~cookies:step.cookies ~body:step.body step.meth step.path in
          let r =
            Span.with_ (if is_write step then "apps.write" else "apps.read") (fun () ->
                serve.Rig.handler req)
          in
          expect step (Ok (Http.Status.to_int r.Http.Response.status)))
        mixed;
      let c1 = Durable.commit_stats serve.Rig.store in
      let probe_writes = List.length (List.filter is_write (Array.to_list mixed)) in
      let per_write x = float_of_int x /. float_of_int probe_writes in
      (* 6. Direct layer probes on the Fig. 8 WebSubmit. *)
      let reps = if smoke then 1 else 7 in
      let db8 = Apps.Websubmit.database ws8 in
      let scan = "SELECT * FROM answers WHERE grade IS NOT NULL" in
      for _ = 1 to reps do
        match Span.with_ "db.exec" (fun () -> Db.Database.exec db8 scan ~params:[]) with
        | Ok _ -> ()
        | Error e -> note_failure ("db scan: " ^ e)
      done;
      let retrain_request = Rig.request ~cookies:Rig.admin Http.Meth.POST "/retrain" in
      let context =
        C.Context.with_sink
          (C.Sesame_web.context_for retrain_request ~user:"admin@school.edu" ())
          "ml::train"
      in
      let rows = ref [] in
      for _ = 1 to reps do
        match
          Span.with_ "conn.query_filtered" (fun () ->
              C.Sesame_conn.query_filtered (Apps.Websubmit.conn ws8) ~context ~on:"grade" scan
                ~params:[])
        with
        | Ok r -> rows := r
        | Error e ->
            note_failure ("connector scan: " ^ Format.asprintf "%a" C.Sesame_conn.pp_error e)
      done;
      (* Retrain's sandbox input, built as the endpoint builds it. *)
      let points =
        List.map
          (fun row ->
            C.Pcon.Internal.map2
              (fun q g -> (float_of_int (Db.Value.to_int q), Db.Value.to_float g))
              (C.Pcon_row.get row "question") (C.Pcon_row.get row "grade"))
          !rows
      in
      let train = Apps.Websubmit.sandbox_train_region ws8 in
      for _ = 1 to reps do
        match Span.with_ "sandbox.train" (fun () -> C.Region.Sandboxed.run_list train points) with
        | Ok _ -> ()
        | Error e -> note_failure ("sandbox train: " ^ C.Region.error_to_string e)
      done;
      let hash = Apps.Websubmit.sandbox_hash_region ws8 in
      for i = 1 to reps * 20 do
        match
          Span.with_ "sandbox.hash" (fun () ->
              C.Region.Sandboxed.run hash (C.Pcon.wrap_no_policy (Printf.sprintf "key-%d" i)))
        with
        | Ok _ -> ()
        | Error e -> note_failure ("sandbox hash: " ^ C.Region.error_to_string e)
      done;
      let rng = Random.State.make [| seed; 8 |] in
      let linreg_points =
        List.init 10_000 (fun i ->
            let x = float_of_int (i mod 100) in
            (x, (0.5 *. x) +. 40.0 +. Random.State.float rng 10.0))
      in
      for _ = 1 to reps do
        match Span.with_ "ml.linreg" (fun () -> Sesame_ml.Linreg.train_simple linreg_points) with
        | Ok _ -> ()
        | Error e -> note_failure ("linreg: " ^ e)
      done;
      (* Employer Info's input: every consenting student's grades. *)
      let employer_grades =
        match
          Db.Database.exec db8
            "SELECT email, grade FROM answers WHERE grade IS NOT NULL" ~params:[]
        with
        | Ok (Db.Database.Rows { rows; _ }) ->
            let consenting =
              match
                Db.Database.exec db8 "SELECT email FROM users WHERE consent_employer = ?"
                  ~params:[ Db.Value.Bool true ]
              with
              | Ok (Db.Database.Rows { rows; _ }) -> List.map (fun r -> Db.Value.to_text r.(0)) rows
              | Ok (Db.Database.Affected _) | Error _ -> []
            in
            List.filter_map
              (fun r ->
                let email = Db.Value.to_text r.(0) in
                if List.mem email consenting then Some (email, Db.Value.to_float r.(1)) else None)
              rows
        | Ok (Db.Database.Affected _) | Error _ -> []
      in
      for _ = 1 to reps do
        match
          Span.with_ "ml.kanon" (fun () -> Sesame_ml.Kanon.group_means ~k:5 employer_grades)
        with
        | Ok _ -> ()
        | Error e -> note_failure ("kanon: " ^ e)
      done;
      (* 7. Checkpoints of the durable store as the run left it. *)
      for _ = 1 to (if smoke then 1 else 3) do
        match Span.with_ "wal.checkpoint" (fun () -> Durable.checkpoint serve.Rig.store) with
        | Ok () -> ()
        | Error e -> note_failure ("checkpoint: " ^ e)
      done;
      let pool = Sbx.Pool.stats serve.Rig.hardening.Apps.Websubmit.sandbox_pool in
      (* 8. Output checks on the workload's own rig, in process. *)
      let o =
        Session.check_outputs kind rig
          (Loop.call_of (Loop.in_process handler))
          ~seed ~tally
      in
      let spans_path =
        Filename.concat Rig.work_dir (Printf.sprintf "spans-%s-%d.jsonl" (name kind) seed)
      in
      Rig.mkdir_p Rig.work_dir;
      Span.write spans_path;
      let socket_p50 = Stats.median socket_light in
      let request_p50 = Stats.median inproc_light in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      Printf.printf
        "traced: %d requests replayed per pass (untraced %.3f s, traced %.3f s), %d over the \
         socket, %d health pings; enforce hits %d of %d lookups; sandbox pool reused %d of %d \
         acquisitions; %d probe writes; residual over %s; spans in %s\n"
        n !untraced_s !traced_s n pings hits (hits + misses) pool.Sbx.Pool.reused
        (pool.Sbx.Pool.reused + pool.Sbx.Pool.created)
        probe_writes (String.concat ", " light) spans_path;
      let endpoint side label =
        let name = Printf.sprintf "%s.%s" side label in
        Stats.metric (name ^ "_ms") "ms" (ms (median_of name))
      in
      let endpoints side =
        List.map (endpoint side) [ "aggregates"; "employer"; "predict"; "register"; "retrain" ]
      in
      {
        Session.metrics =
          [
            Stats.metric "http.parse_us" "us" (us (median_of "http.parse"));
            Stats.metric "http.write_us" "us" (us (median_of "http.write"));
            Stats.metric "http.route_us" "us"
              (us (median_of "route.handle" -. median_of "route.direct"));
            Stats.metric "server.health_rtt_us" "us" (us (median_of "server.health"));
            Stats.metric "server.residual_us" "us" (us (socket_p50 -. request_p50));
            Stats.metric "server.shed" "count"
              (float_of_int (st1.Sesame_server.shed - st0.Sesame_server.shed));
            Stats.metric "server.timeouts" "count"
              (float_of_int (st1.Sesame_server.timeouts - st0.Sesame_server.timeouts));
            Stats.metric "server.parse_errors" "count"
              (float_of_int (st1.Sesame_server.parse_errors - st0.Sesame_server.parse_errors));
          ]
          @ endpoints "websubmit" @ endpoints "baseline"
          @ [
              Stats.metric "apps.read_us" "us" (us (median_of "apps.read"));
              Stats.metric "apps.write_us" "us" (us (median_of "apps.write"));
              Stats.metric "db.scan_answers_ms" "ms" (ms (median_of "db.exec"));
              Stats.metric "conn.scan_answers_ms" "ms" (ms (median_of "conn.query_filtered"));
              Stats.metric "db.statements_per_req" "count/req" (per_req !statements_d);
              Stats.metric "enforce.hits_per_req" "count/req" (per_req hits);
              Stats.metric "enforce.misses_per_req" "count/req" (per_req misses);
              Stats.metric "enforce.elisions_per_req" "count/req"
                (per_req !elisions);
              Stats.metric "enforce.pushdowns_per_req" "count/req"
                (per_req !pushdowns);
              Stats.metric "enforce.hit_ratio" "ratio" (ratio hits (hits + misses));
              Stats.metric "sandbox.train_ms" "ms" (ms (median_of "sandbox.train"));
              Stats.metric "sandbox.hash_us" "us" (us (median_of "sandbox.hash"));
              Stats.metric "sandbox.pool_reuse_ratio" "ratio"
                (ratio pool.Sbx.Pool.reused (pool.Sbx.Pool.reused + pool.Sbx.Pool.created));
              Stats.metric "ml.linreg_train_ms" "ms" (ms (median_of "ml.linreg"));
              Stats.metric "ml.kanon_ms" "ms" (ms (median_of "ml.kanon"));
              Stats.metric "wal.fsyncs_per_write" "count/write"
                (per_write (c1.Durable.fsyncs - c0.Durable.fsyncs));
              Stats.metric "wal.appends_per_write" "count/write"
                (per_write (c1.Durable.appended - c0.Durable.appended));
              Stats.metric "wal.checkpoint_ms" "ms" (ms (median_of "wal.checkpoint"));
              Stats.metric "gc.minor_words_per_req" "words/req"
                (!minor_words /. float_of_int n);
              Stats.metric "gc.minor_collections_per_req" "count/req"
                (per_req !minor_collections);
              Stats.metric "gc.major_collections" "count"
                (float_of_int !major_collections);
              Stats.metric "trace.overhead_pct" "%" (100.0 *. ((!traced_s /. !untraced_s) -. 1.0));
            ];
        attempted = !attempted + o.Checks.attempted;
        failed = !failures + o.Checks.failed;
      })
