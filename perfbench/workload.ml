(* The three workloads' request sequences, made from the seed alone. Every
   phase has a fixed request count, so a writing workload ends in the same
   state on every commit. *)

module Http = Sesame_http

type step = {
  label : string;  (* the target, e.g. "websubmit-view" *)
  meth : Http.Meth.t;
  path : string;
  cookies : string;
  body : string;
  expect : int;  (* the only status that counts as success *)
}

let is_write s = s.meth <> Http.Meth.GET

let get ~cookies label path =
  { label; meth = Http.Meth.GET; path; cookies; body = ""; expect = 200 }

let post ?(expect = 200) ~cookies ~body label path =
  { label; meth = Http.Meth.POST; path; cookies; body; expect }

type kind = Fig8 | Serve_read | Serve_mixed

let kinds = [ ("websubmit-fig8", Fig8); ("serve-read", Serve_read); ("serve-mixed", Serve_mixed) ]
let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* Requests per second of [--seconds] on a 2-core host at the parent
   commit. They only size the fixed counts; they are never used to pace. *)
let nominal_rps = function Fig8 -> 235 | Serve_read -> 7000 | Serve_mixed -> 5500

(* Timed requests of one run, and the untimed warm-up before them. Fig. 8
   counts whole five-endpoint cycles. *)
let timed_count kind ~seconds =
  let n = max 60 (seconds * nominal_rps kind) in
  match kind with Fig8 -> n - (n mod 5) | Serve_read | Serve_mixed -> n

let warmup_count kind ~seconds =
  match kind with
  | Fig8 -> 5 * max 2 (seconds / 2)
  | Serve_read | Serve_mixed -> max 100 (seconds * nominal_rps kind / 20)

(* ------------------------------------------------------------------ *)
(* websubmit-fig8: the five Fig. 8 endpoints in the paper's order, called
   through Websubmit.handle. Registrations decline consent, so the set of
   users Employer Info visits stays the seeded one. *)

let fig8_cycle rng ~seed i =
  let admin = Rig.admin in
  [
    get ~cookies:admin "aggregates" "/aggregates";
    get ~cookies:admin "employer" "/employer";
    get ~cookies:admin "predict"
      (Printf.sprintf "/predict/%d" (Random.State.int rng Rig.fig8_questions));
    post ~expect:201 ~cookies:""
      ~body:(Printf.sprintf "email=reg%d.%d%%40new.edu&apikey=k%d&consent=false" seed i i)
      "register" "/register";
    post ~cookies:admin ~body:"" "retrain" "/retrain";
  ]

(* ------------------------------------------------------------------ *)
(* serve-read / serve-mixed: light authorized reads across all four apps
   behind the mux; serve-mixed makes one request in four a write. *)

let student s = Printf.sprintf "user=student%d@school.edu" s
let chat_user u = Printf.sprintf "user=user%d@chat.io" u

(* The six read targets, each with fresh seeded parameters. *)
let read rng ~buffers target =
  let pick n = Random.State.int rng n in
  match target with
  | 0 ->
      let s = pick Rig.serve_students and q = pick Rig.serve_questions in
      (* The seed numbers answers from 1, student-major. *)
      get ~cookies:(student s) "websubmit-view"
        (Printf.sprintf "/websubmit/view/%d" ((s * Rig.serve_questions) + q + 1))
  | 1 ->
      get ~cookies:Rig.admin "websubmit-predict"
        (Printf.sprintf "/websubmit/predict/%d" (pick Rig.serve_questions))
  | 2 -> get ~cookies:(chat_user (pick Rig.youchat_users)) "youchat-inbox" "/youchat/inbox"
  | 3 ->
      (* The seeded group holds the first half of the users. *)
      get ~cookies:(chat_user (pick (Rig.youchat_users / 2))) "youchat-group" "/youchat/group/1"
  | 4 -> get ~cookies:"user=officer@school.cz" "portfolio-admin" "/portfolio/admin/candidates"
  | _ ->
      let buffer, class_id = List.nth buffers (pick (List.length buffers)) in
      get
        ~cookies:(Printf.sprintf "user=instructor%d@university.edu" (class_id - 1))
        "voltron-buffer"
        (Printf.sprintf "/voltron/buffers/%d" buffer)

(* Requests per block of twelve for each read target above. The weights
   keep p50 well inside the cluster of cheap reads (view, predict,
   buffer): with equal weights the 50% rank sat on the boundary between
   that cluster and the scanning reads, and p50 jumped between the two
   from block to block. serve-mixed leaves out the inbox: its query scans
   every message, so the sends would make it slower request by request
   and the workload would measure the growth of one table. *)
let read_weights = function
  | Serve_mixed -> [| 3; 3; 0; 1; 1; 1 |]
  | Fig8 | Serve_read -> [| 3; 3; 1; 1; 2; 2 |]

(* The write targets of one serve-mixed block. A YouChat send goes into
   one block in four (a consent flip in the others), so the messages table
   grows slowly. *)
let writes rng ~seed b =
  let pick n = Random.State.int rng n in
  let consent () =
    post ~cookies:(student (pick Rig.serve_students))
      ~body:(if pick 2 = 0 then "consent=true" else "consent=false")
      "websubmit-consent" "/websubmit/consent"
  in
  let send () =
    let from = pick Rig.youchat_users in
    let to_ = (from + 1 + pick (Rig.youchat_users - 1)) mod Rig.youchat_users in
    post ~expect:201 ~cookies:(chat_user from)
      ~body:(Printf.sprintf "to=user%d%%40chat.io&body=hello+%d+%d" to_ seed b)
      "youchat-send" "/youchat/send"
  in
  [
    (* Flips the consent flags that the employer and training policies read. *)
    consent ();
    post ~expect:201
      ~cookies:(student (pick Rig.serve_students))
      ~body:(Printf.sprintf "answer=mixed+answer+%d+%d" seed b)
      "websubmit-submit"
      (Printf.sprintf "/websubmit/submit/1/%d" (pick Rig.serve_questions));
    (if b mod 4 = 0 then send () else consent ());
  ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Blocks of twelve: serve-read is reads only, serve-mixed nine reads and
   three writes. Order within a block is shuffled. *)
let serve_block kind rng ~seed ~buffers b =
  let reads =
    List.concat
      (List.mapi
         (fun t w -> List.init w (fun _ -> read rng ~buffers t))
         (Array.to_list (read_weights kind)))
  in
  let block =
    match kind with Serve_mixed -> reads @ writes rng ~seed b | Fig8 | Serve_read -> reads
  in
  Array.to_list (shuffle rng (Array.of_list block))

(* A phase's steps, generated a block at a time as the caller asks for
   them, so the benchmark holds no request list of its own on the heap.
   [tag] keeps the phases' generated keys apart. *)
let stream kind ~seed ~buffers ~tag =
  let rng = Random.State.make [| seed; tag; Hashtbl.hash (name kind) |] in
  let pending = ref [] and block = ref 0 in
  fun () ->
    (match !pending with
    | [] ->
        let key = (tag * 10_000_000) + !block in
        incr block;
        pending :=
          (match kind with
          | Fig8 -> fig8_cycle rng ~seed key
          | Serve_read | Serve_mixed -> serve_block kind rng ~seed ~buffers key)
    | _ :: _ -> ());
    match !pending with
    | step :: rest ->
        pending := rest;
        step
    | [] -> assert false

let sequence kind ~seed ~buffers ~tag count =
  let next = stream kind ~seed ~buffers ~tag in
  Array.init count (fun _ -> next ())

(* The request that closes set-up: a read that leaves no state behind. *)
let first_request = function
  | Fig8 -> get ~cookies:Rig.admin "aggregates" "/aggregates"
  | Serve_read | Serve_mixed -> get ~cookies:Rig.admin "websubmit-predict" "/websubmit/predict/0"
