(* Output checks made after the timed phase: for every app in the
   workload, a seeded sentinel is written into a policy-protected cell; the
   principal it belongs to must get one exact expected body, and a denied
   principal's responses must not contain it. Then the final row counts
   must equal the seed plus the writes the run made. *)

module Db = Sesame_db
module Http = Sesame_http
module Apps = Sesame_apps
open Workload

type outcome = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let outcome () = { attempted = 0; failed = 0; problems = [] }

let problem o fmt =
  Printf.ksprintf
    (fun m ->
      o.failed <- o.failed + 1;
      o.problems <- m :: o.problems)
    fmt

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n > 0 && at 0

(* [call] sends one request the way the workload's caller does (in
   process or over the connection). *)
type call = step -> (Rig.reply, string) result

let expect_status o (call : call) step =
  o.attempted <- o.attempted + 1;
  match call step with
  | Error e ->
      problem o "%s %s: %s" step.label step.path e;
      None
  | Ok r when r.Rig.status <> step.expect ->
      problem o "%s %s: status %d, expected %d" step.label step.path r.status step.expect;
      None
  | Ok r -> Some r

let expect_body o call step expected =
  match expect_status o call step with
  | Some r when r.Rig.body <> expected ->
      problem o "%s %s: body %S, expected %S" step.label step.path r.body expected
  | Some _ | None -> ()

let expect_no_leak o (call : call) ~sentinel step =
  o.attempted <- o.attempted + 1;
  match call step with
  | Error e -> problem o "%s %s: %s" step.label step.path e
  | Ok r when contains ~sub:sentinel r.Rig.body ->
      problem o "LEAK: %s %s (%s) returned the sentinel" step.label step.path step.cookies
  | Ok _ -> ()

let single_int db sql params =
  match Db.Database.exec db sql ~params with
  | Ok (Db.Database.Rows { rows = [ [| v |] ]; _ }) -> Some (Db.Value.to_int v)
  | Ok _ | Error _ -> None

let sentinel ~seed app = Printf.sprintf "sentinel%dz%s" seed app

(* WebSubmit: an answer by student 3 is readable by student 3 and by no
   other student (student 0 leads the lecture's discussion, so it is not
   used as the denied principal). *)
let websubmit o call ~seed ~prefix db =
  let secret = sentinel ~seed "websubmit" in
  let author = student 3 and other = student 4 in
  ignore
    (expect_status o call
       (post ~expect:201 ~cookies:author ~body:("answer=" ^ secret) "plant"
          (prefix ^ "/submit/1/2")));
  match
    single_int db "SELECT id FROM answers WHERE answer = ?" [ Db.Value.Text secret ]
  with
  | None -> problem o "websubmit: planted answer not stored exactly once"
  | Some id ->
      let view = Printf.sprintf "%s/view/%d" prefix id in
      expect_body o call (get ~cookies:author "own-answer" view)
        (Printf.sprintf "<html><body><h1>Answer</h1><p>%s</p></body></html>" secret);
      expect_no_leak o call ~sentinel:secret (get ~cookies:other "other-answer" view);
      expect_no_leak o call ~sentinel:secret
        (get ~cookies:other "other-lecture" (prefix ^ "/answers/1"))

(* YouChat: a direct message between two fresh users reaches the
   recipient's inbox and no third party's inbox or group feed. *)
let youchat o call ~seed =
  let secret = sentinel ~seed "youchat" in
  ignore
    (expect_status o call
       (post ~expect:201 ~cookies:"user=canary-a@chat.io"
          ~body:("to=canary-b%40chat.io&body=" ^ secret)
          "plant" "/youchat/send"));
  expect_body o call
    (get ~cookies:"user=canary-b@chat.io" "recipient-inbox" "/youchat/inbox")
    (Printf.sprintf "<html><body><div>%s</div></body></html>" secret);
  expect_no_leak o call ~sentinel:secret
    (get ~cookies:(chat_user 4) "other-inbox" "/youchat/inbox");
  expect_no_leak o call ~sentinel:secret
    (get ~cookies:(chat_user 0) "group-feed" "/youchat/group/1")

(* Portfolio: a fresh candidate's uploaded document decrypts for its owner
   only; a second candidate with its own key is refused. *)
let portfolio o call ~seed db =
  let secret = sentinel ~seed "portfolio" in
  let register email =
    match
      expect_status o call
        (post ~expect:201 ~cookies:""
           ~body:
             (Printf.sprintf "email=%s&name=Canary&school=Test"
                (Http.Request.percent_encode email))
           "register" "/portfolio/register")
    with
    | None -> None
    | Some r -> (
        match Http.Headers.get r.Rig.headers "Set-Cookie" with
        | Some c ->
            let pair = List.hd (String.split_on_char ';' c) in
            Some (Printf.sprintf "user=%s; %s" email (String.trim pair))
        | None ->
            problem o "portfolio register: no private key cookie";
            None)
  in
  match (register "canary-p@school.cz", register "canary-q@school.cz") with
  | Some owner, Some other -> (
      ignore
        (expect_status o call
           (post ~expect:201 ~cookies:owner ~body:secret "upload"
              "/portfolio/documents?filename=canary.txt"));
      match
        single_int db "SELECT id FROM documents WHERE email = ?"
          [ Db.Value.Text "canary-p@school.cz" ]
      with
      | None -> problem o "portfolio: planted document not stored exactly once"
      | Some id ->
          let path = Printf.sprintf "/portfolio/documents/%d" id in
          expect_body o call (get ~cookies:owner "own-document" path) secret;
          expect_no_leak o call ~sentinel:secret (get ~cookies:other "other-document" path))
  | _ -> ()

(* Voltron: an edit to class 1 group 1's buffer is visible to the group's
   other student and to no student of another group or class instructor
   of another class. *)
let voltron o call ~seed db =
  let secret = sentinel ~seed "voltron" in
  match
    single_int db "SELECT id FROM buffers WHERE class_id = ? AND group_id = ?"
      [ Db.Value.Int 1; Db.Value.Int 1 ]
  with
  | None -> problem o "voltron: no buffer for class 1 group 1"
  | Some id ->
      let path = Printf.sprintf "/voltron/buffers/%d" id in
      ignore
        (expect_status o call
           (post ~cookies:"user=student0_0@university.edu" ~body:("edit=" ^ secret) "plant" path));
      expect_body o call
        (get ~cookies:"user=student0_1@university.edu" "group-buffer" path)
        (Printf.sprintf "<html><body><code>fn main() {}\n%s</code></body></html>" secret);
      expect_no_leak o call ~sentinel:secret
        (get ~cookies:"user=student0_2@university.edu" "other-group" path);
      expect_no_leak o call ~sentinel:secret
        (get ~cookies:"user=instructor1@university.edu" "other-class" path)

let expect_count o what ~expected ~got =
  o.attempted <- o.attempted + 1;
  Printf.printf "final count of %s: %d\n" what got;
  if expected <> got then problem o "final count of %s: %d, expected %d" what got expected
