(* Per-shard epochs and footprint-keyed cache invalidation.

   The load-bearing properties: a pk mutation bumps only its own shard;
   reads record exactly the (table, shard) slots they depended on;
   Enforce keeps verdicts warm across writes to other tables and other
   shards while any write to a recorded slot still invalidates; the
   connector's aggregate cache survives unrelated writes; scans racing
   writers see a consistent snapshot; and the cache stays
   observationally identical to the sequential Policy reference — same
   verdicts, byte-identical denial messages — under every flag
   combination. *)

module C = Sesame_core
module Db = Sesame_db
module P = Sesame_parallel

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool domains f =
  let pool = P.create ~domains () in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

let exec db sql params =
  match Db.Database.exec db sql ~params with
  | Ok _ -> ()
  | Error m -> failwith m

(* A pk value hashed into a different / the same shard as [v]. *)
let key_sharded_like v ~same =
  let s = Db.Epoch.shard_of_value (Db.Value.Text v) in
  let rec go i =
    let c = Printf.sprintf "user%d" i in
    if c <> v && (Db.Epoch.shard_of_value (Db.Value.Text c) = s) = same then c
    else go (i + 1)
  in
  go 0

(* A consents-style table under [name]: pk who, bool consent. *)
let consent_table db name users =
  let schema =
    Db.Schema.make_exn ~name ~primary_key:"who"
      [
        { Db.Schema.name = "who"; ty = Db.Value.Ttext; nullable = false };
        { Db.Schema.name = "consent"; ty = Db.Value.Tbool; nullable = false };
      ]
  in
  (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
  List.iter
    (fun who ->
      exec db
        (Printf.sprintf "INSERT INTO %s VALUES (?, ?)" name)
        [ Db.Value.Text who; Db.Value.Bool true ])
    users

let shard_gens ep = Array.init Db.Epoch.shard_count (Db.Epoch.shard_gen ep)

(* ------------------------------------------------------------------ *)
(* Epoch vectors *)

let epoch_tests =
  [
    test "a pk mutation bumps only its own shard" (fun () ->
        let db = Db.Database.create () in
        consent_table db "ep_one" [ "ada" ];
        let ep = Db.Epoch.for_table "ep_one" in
        let before = shard_gens ep and t0 = Db.Epoch.total_gen ep in
        let bob = key_sharded_like "ada" ~same:false in
        exec db "INSERT INTO ep_one VALUES (?, ?)" [ Db.Value.Text bob; Db.Value.Bool true ];
        let after = shard_gens ep in
        let hit = Db.Epoch.shard_of_value (Db.Value.Text bob) in
        Array.iteri
          (fun i b ->
            if i = hit then check_bool "hit shard moved" true (after.(i) > b)
            else check_int (Printf.sprintf "shard %d untouched" i) b after.(i))
          before;
        check_bool "total moved" true (Db.Epoch.total_gen ep > t0));
    test "an unfiltered update bumps exactly the touched keys' shards" (fun () ->
        let db = Db.Database.create () in
        let other = key_sharded_like "ada" ~same:false in
        consent_table db "ep_all" [ "ada"; other ];
        let ep = Db.Epoch.for_table "ep_all" in
        let before = shard_gens ep in
        exec db "UPDATE ep_all SET consent = false" [];
        let after = shard_gens ep in
        let touched =
          List.map
            (fun k -> Db.Epoch.shard_of_value (Db.Value.Text k))
            [ "ada"; other ]
        in
        Array.iteri
          (fun i b ->
            if List.mem i touched then
              check_bool (Printf.sprintf "shard %d moved" i) true (after.(i) > b)
            else check_int (Printf.sprintf "shard %d untouched" i) b after.(i))
          before);
    test "epochs are name-keyed and survive drop/recreate" (fun () ->
        let db = Db.Database.create () in
        consent_table db "ep_persist" [ "ada" ];
        let ep = Db.Epoch.for_table "ep_persist" in
        let t0 = Db.Epoch.total_gen ep in
        (match Db.Database.drop_table db "ep_persist" with
        | Ok () -> ()
        | Error m -> failwith m);
        consent_table db "ep_persist" [ "ada" ];
        check_bool "same vector" true (Db.Epoch.for_table "ep_persist" == ep);
        (* Never reset: a stale footprint must not revalidate against a
           recreated table with different contents. *)
        check_bool "monotone across recreate" true (Db.Epoch.total_gen ep > t0));
  ]

(* ------------------------------------------------------------------ *)
(* Footprint recording *)

let footprint_tests =
  [
    test "a pk-equality probe records exactly one shard" (fun () ->
        let db = Db.Database.create () in
        consent_table db "fp_probe" [ "ada" ];
        let (), fp =
          Db.Footprint.scope (fun () ->
              exec db "SELECT consent FROM fp_probe WHERE who = ?" [ Db.Value.Text "ada" ])
        in
        let shard = Db.Epoch.shard_of_value (Db.Value.Text "ada") in
        check_bool "one shard dep" true
          (Db.Footprint.deps fp = [ ("fp_probe", shard) ]);
        (* A pk miss is shard-local too: absence of the key lives in its
           own shard. *)
        let ghost = key_sharded_like "ada" ~same:false in
        let (), fp_miss =
          Db.Footprint.scope (fun () ->
              exec db "SELECT consent FROM fp_probe WHERE who = ?" [ Db.Value.Text ghost ])
        in
        check_bool "miss is shard-local" true
          (Db.Footprint.deps fp_miss
          = [ ("fp_probe", Db.Epoch.shard_of_value (Db.Value.Text ghost)) ]));
    test "scans and missing tables record whole-table deps" (fun () ->
        let db = Db.Database.create () in
        consent_table db "fp_scan" [ "ada" ];
        let (), fp =
          Db.Footprint.scope (fun () -> exec db "SELECT * FROM fp_scan" [])
        in
        check_bool "whole-table dep" true (Db.Footprint.deps fp = [ ("fp_scan", -1) ]);
        let (), fp_absent =
          Db.Footprint.scope (fun () ->
              ignore (Db.Database.exec db "SELECT * FROM fp_ghost" ~params:[]))
        in
        (* The verdict depends on the table's absence: creating it must
           invalidate, so the lookup miss records the name. *)
        check_bool "absence dep" true
          (List.mem ("fp_ghost", -1) (Db.Footprint.deps fp_absent)));
    test "validity tracks only the recorded slots" (fun () ->
        let db = Db.Database.create () in
        let other = key_sharded_like "ada" ~same:false in
        let sibling = key_sharded_like "ada" ~same:true in
        consent_table db "fp_valid" [ "ada"; other ];
        let (), fp =
          Db.Footprint.scope (fun () ->
              exec db "SELECT consent FROM fp_valid WHERE who = ?" [ Db.Value.Text "ada" ])
        in
        check_bool "fresh" true (Db.Footprint.valid fp);
        exec db "UPDATE fp_valid SET consent = false WHERE who = ?" [ Db.Value.Text other ];
        check_bool "other shard: still valid" true (Db.Footprint.valid fp);
        exec db "INSERT INTO fp_valid VALUES (?, ?)"
          [ Db.Value.Text sibling; Db.Value.Bool true ];
        check_bool "same shard: invalid" false (Db.Footprint.valid fp));
    test "nested scopes merge child deps into the parent" (fun () ->
        let db = Db.Database.create () in
        consent_table db "fp_nest" [ "ada" ];
        let (), outer =
          Db.Footprint.scope (fun () ->
              let (), inner =
                Db.Footprint.scope (fun () ->
                    exec db "SELECT consent FROM fp_nest WHERE who = ?"
                      [ Db.Value.Text "ada" ])
              in
              check_int "inner has the dep" 1 (Db.Footprint.cardinal inner))
        in
        check_bool "parent inherits" true
          (Db.Footprint.deps outer
          = [ ("fp_nest", Db.Epoch.shard_of_value (Db.Value.Text "ada")) ]);
        (* merge_ambient replays a stored snapshot (the cache-hit path). *)
        let (), replayed = Db.Footprint.scope (fun () -> Db.Footprint.merge_ambient outer) in
        check_bool "replayed" true (Db.Footprint.deps replayed = Db.Footprint.deps outer));
  ]

(* ------------------------------------------------------------------ *)
(* Precise invalidation in Enforce *)

(* A policy whose verdict depends on one user's row in one table. *)
module Consent_family = struct
  type s = { db : Db.Database.t; table : string; user : string }

  let name = "shard::consent"

  let check s _ctx =
    match
      Db.Database.exec s.db
        (Printf.sprintf "SELECT consent FROM %s WHERE who = ?" s.table)
        ~params:[ Db.Value.Text s.user ]
    with
    | Ok (Db.Database.Rows { rows = [ [| Db.Value.Bool b |] ]; _ }) -> b
    | _ -> false

  let join = None
  let no_folding = false
  let describe s = "Consent(" ^ s.table ^ "/" ^ s.user ^ ")"
end

module Consent = C.Policy.Make (Consent_family)

let with_enforce_defaults f =
  Fun.protect
    ~finally:(fun () ->
      C.Enforce.set_memoization true;
      C.Enforce.bump ())
    (fun () ->
      C.Enforce.set_memoization true;
      C.Enforce.bump ();
      f ())

let leaf_runs f =
  C.Policy.reset_check_count ();
  f ();
  C.Policy.check_count ()

let enforce_tests =
  [
    test "a write to table A keeps verdicts reading only table B warm" (fun () ->
        with_enforce_defaults (fun () ->
            let db = Db.Database.create () in
            consent_table db "inv_a" [ "ada" ];
            consent_table db "inv_b" [ "ada" ];
            let pb = Consent.make { db; table = "inv_b"; user = "ada" } in
            let ctx = C.Mock.context ~user:"ada" () in
            check_bool "warmed" true (C.Enforce.check pb ctx);
            exec db "UPDATE inv_a SET consent = false WHERE who = ?" [ Db.Value.Text "ada" ];
            let runs = leaf_runs (fun () -> check_bool "still allowed" true (C.Enforce.check pb ctx)) in
            check_int "still cached after cross-table write" 0 runs));
    test "a write to shard i keeps shard j's verdicts warm" (fun () ->
        with_enforce_defaults (fun () ->
            let db = Db.Database.create () in
            let other = key_sharded_like "ada" ~same:false in
            consent_table db "inv_shard" [ "ada"; other ];
            let p = Consent.make { db; table = "inv_shard"; user = "ada" } in
            let ctx = C.Mock.context ~user:"ada" () in
            check_bool "warmed" true (C.Enforce.check p ctx);
            exec db "UPDATE inv_shard SET consent = false WHERE who = ?"
              [ Db.Value.Text other ];
            let runs = leaf_runs (fun () -> check_bool "still allowed" true (C.Enforce.check p ctx)) in
            check_int "still cached after cross-shard write" 0 runs;
            (* A write into the recorded shard — even another key hashing
               there — must invalidate (conservative, hence sound). *)
            let sibling = key_sharded_like "ada" ~same:true in
            exec db "INSERT INTO inv_shard VALUES (?, ?)"
              [ Db.Value.Text sibling; Db.Value.Bool true ];
            let runs = leaf_runs (fun () -> check_bool "recheck allows" true (C.Enforce.check p ctx)) in
            check_bool "same-shard write recomputes" true (runs > 0);
            (* And a write to the key itself flips the verdict. *)
            exec db "UPDATE inv_shard SET consent = false WHERE who = ?"
              [ Db.Value.Text "ada" ];
            check_bool "stale verdict dropped" false (C.Enforce.check p ctx)));
    test "table creation invalidates verdicts that read its absence" (fun () ->
        with_enforce_defaults (fun () ->
            let db = Db.Database.create () in
            let p = Consent.make { db; table = "inv_late"; user = "ada" } in
            let ctx = C.Mock.context ~user:"ada" () in
            check_bool "denied while absent" false (C.Enforce.check p ctx);
            consent_table db "inv_late" [ "ada" ];
            check_bool "allowed once created" true (C.Enforce.check p ctx)));
  ]

(* ------------------------------------------------------------------ *)
(* The connector's aggregate cache *)

module Only_family = struct
  type s = { who : string }

  let name = "shard::only"
  let check s ctx = C.Context.user ctx = Some s.who
  let join = None
  let no_folding = false
  let describe s = "Only(" ^ s.who ^ ")"
end

module Only = C.Policy.Make (Only_family)

let agg_tests =
  [
    test "aggregate groups stay warm across writes to other tables" (fun () ->
        with_enforce_defaults (fun () ->
            let db = Db.Database.create () in
            let mk name cols = Db.Schema.make_exn ~name ~primary_key:"id" cols in
            let col name ty = { Db.Schema.name; ty; nullable = false } in
            (match
               Db.Database.create_table db
                 (mk "agg_notes"
                    [ col "id" Db.Value.Tint; col "owner" Db.Value.Ttext; col "note" Db.Value.Ttext ])
             with
            | Ok () -> ()
            | Error m -> failwith m);
            (match Db.Database.create_table db (mk "agg_other" [ col "id" Db.Value.Tint ]) with
            | Ok () -> ()
            | Error m -> failwith m);
            exec db "INSERT INTO agg_notes VALUES (1, 'ada', 'x')" [];
            exec db "INSERT INTO agg_notes VALUES (2, 'eve', 'y')" [];
            let conn = C.Sesame_conn.create db in
            let builds = ref 0 in
            C.Sesame_conn.attach_policy conn ~table:"agg_notes" ~column:"note"
              (fun schema row ->
                incr builds;
                Only.make { who = Db.Value.to_text (Db.Row.get schema row "owner") });
            let ada = C.Mock.context ~user:"ada" () in
            let count () =
              match
                C.Sesame_conn.query_agg conn ~context:ada
                  "SELECT COUNT(note) FROM agg_notes" ~params:[]
              with
              | Ok [ row ] -> (
                  match C.Pcon.Internal.unwrap (List.assoc "COUNT(note)" row) with
                  | Db.Value.Int n -> n
                  | _ -> -1)
              | Ok _ -> -1
              | Error e -> Alcotest.failf "%a" C.Sesame_conn.pp_error e
            in
            check_int "count" 2 (count ());
            let cold = !builds in
            check_bool "policies built once" true (cold > 0);
            check_int "warm hit builds nothing" 2 (count ());
            check_int "no rebuild" cold !builds;
            (* A write to an unrelated table used to drop the whole agg
               cache (one shared epoch); footprint-keyed entries survive. *)
            exec db "INSERT INTO agg_other VALUES (7)" [];
            check_int "still two" 2 (count ());
            check_int "unrelated write keeps groups warm" cold !builds;
            (* A write to the aggregated table rebuilds — and re-counts. *)
            exec db "INSERT INTO agg_notes VALUES (3, 'bob', 'z')" [];
            check_int "recount" 3 (count ());
            check_bool "rebuilt" true (!builds > cold)));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot scans racing writers *)

let ints_table db name n =
  let schema =
    Db.Schema.make_exn ~name ~primary_key:"id"
      [
        { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
        { Db.Schema.name = "v"; ty = Db.Value.Tint; nullable = false };
      ]
  in
  (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
  for i = 0 to n - 1 do
    exec db (Printf.sprintf "INSERT INTO %s VALUES (?, 0)" name) [ Db.Value.Int i ]
  done

let snapshot_tests =
  [
    test "a scan racing whole-table updates sees one consistent version" (fun () ->
        let db = Db.Database.create () in
        let n = 512 in
        ints_table db "torn_upd" n;
        let tbl = Db.Database.table_exn db "torn_upd" in
        let done_ = Atomic.make false in
        let writer =
          Domain.spawn (fun () ->
              for k = 1 to 40 do
                exec db "UPDATE torn_upd SET v = ?" [ Db.Value.Int k ]
              done;
              Atomic.set done_ true)
        in
        let torn = ref false in
        while not (Atomic.get done_) do
          let rows = Db.Table.select tbl ~where:Db.Expr.True in
          (match rows with
          | [] -> torn := true
          | [| _; v0 |] :: rest ->
              if
                List.length rows <> n
                || not (List.for_all (function [| _; v |] -> v = v0 | _ -> false) rest)
              then torn := true
          | _ -> torn := true)
        done;
        Domain.join writer;
        check_bool "no torn scan" false !torn);
    test "a scan racing inserts sees a consistent prefix" (fun () ->
        let db = Db.Database.create () in
        ints_table db "torn_ins" 0;
        let tbl = Db.Database.table_exn db "torn_ins" in
        let n = 800 in
        let writer =
          Domain.spawn (fun () ->
              for i = 0 to n - 1 do
                exec db "INSERT INTO torn_ins VALUES (?, 0)" [ Db.Value.Int i ]
              done)
        in
        let bad = ref false in
        let seen_all = ref false in
        while not !seen_all do
          let ids =
            List.map
              (function [| Db.Value.Int id; _ |] -> id | _ -> -1)
              (Db.Table.select tbl ~where:Db.Expr.True)
          in
          (* Inserts append in pk order, so any snapshot must be exactly
             0 .. k-1 — never a row without its predecessors. *)
          if ids <> List.init (List.length ids) Fun.id then bad := true;
          if List.length ids = n then seen_all := true
        done;
        Domain.join writer;
        check_bool "every snapshot a prefix" false !bad);
  ]

(* ------------------------------------------------------------------ *)
(* Adaptive indexing under concurrent domains *)

let hammer_tests =
  [
    test "4-domain scan/write hammer while the adaptive index builds" (fun () ->
        let db = Db.Database.create () in
        let schema =
          Db.Schema.make_exn ~name:"hammer" ~primary_key:"id"
            [
              { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
              { Db.Schema.name = "grp"; ty = Db.Value.Tint; nullable = false };
              { Db.Schema.name = "v"; ty = Db.Value.Tint; nullable = false };
            ]
        in
        (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
        let n = 420 in
        for i = 0 to n - 1 do
          exec db "INSERT INTO hammer VALUES (?, ?, 0)"
            [ Db.Value.Int i; Db.Value.Int (i mod 7) ]
        done;
        let expected =
          List.filter (fun i -> i mod 7 = 2) (List.init n Fun.id)
        in
        let reader () =
          let ok = ref true in
          for _ = 1 to 120 do
            let ids =
              match
                Db.Database.exec db "SELECT id FROM hammer WHERE grp = ?"
                  ~params:[ Db.Value.Int 2 ]
              with
              | Ok (Db.Database.Rows { rows; _ }) ->
                  List.map (function [| Db.Value.Int id |] -> id | _ -> -1) rows
              | _ -> []
            in
            if ids <> expected then ok := false
          done;
          !ok
        in
        (* The writer touches only [v], never [grp]: reader results must
           be bit-stable even mid-build. *)
        let writer () =
          for k = 1 to 400 do
            exec db "UPDATE hammer SET v = ? WHERE id = ?"
              [ Db.Value.Int k; Db.Value.Int (k mod n) ]
          done;
          true
        in
        let indexer () =
          for _ = 1 to 40 do
            match Db.Database.ensure_index db ~table:"hammer" ~column:"grp" with
            | Ok () -> ()
            | Error m -> failwith m
          done;
          true
        in
        let domains =
          List.map Domain.spawn [ reader; reader; writer; indexer ]
        in
        let oks = List.map Domain.join domains in
        check_bool "all domains consistent" true (List.for_all Fun.id oks);
        let tbl = Db.Database.table_exn db "hammer" in
        check_bool "index built" true (Db.Table.has_index tbl "grp"));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: the verdict cache vs the sequential reference *)

module Parity = C.Policy.Make (struct
  type s = int

  let name = "shard::parity"

  let check s ctx =
    match C.Context.user ctx with
    | Some u -> String.length u mod 2 = s
    | None -> false

  let join = None
  let no_folding = false
  let describe s = "parity=" ^ string_of_int s
end)

let verdict_eq a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

type op = Check of int | Set_consent of int * bool | Add_user of int | Drop_user of int

let n_users = 6

let op_gen =
  QCheck.Gen.(
    let u = int_bound (n_users - 1) in
    small_list
      (oneof
         [
           map (fun i -> Check i) u;
           map2 (fun i b -> Set_consent (i, b)) u bool;
           map (fun i -> Add_user i) u;
           map (fun i -> Drop_user i) u;
         ]))

let pp_op = function
  | Check i -> Printf.sprintf "Check %d" i
  | Set_consent (i, b) -> Printf.sprintf "Set (%d, %b)" i b
  | Add_user i -> Printf.sprintf "Add %d" i
  | Drop_user i -> Printf.sprintf "Drop %d" i

let op_arb =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) op_gen

(* Replay [ops] against a fresh table under the given flags; every Check
   must match the uncached sequential walk computed at the same instant,
   verdicts AND denial messages. An unsoundly-warm cache entry shows up
   here as a verdict diverging right after the mutation it missed. *)
let differential_run pool ~memo ~parallel ops =
  C.Enforce.set_memoization memo;
  C.Enforce.set_pool (if parallel then Some pool else None);
  C.Enforce.set_parallel_cutoff 2;
  C.Enforce.bump ();
  let db = Db.Database.create () in
  let user i = String.make (i + 1) 'u' in
  consent_table db "diff_t" (List.init n_users user);
  let policies =
    Array.init n_users (fun i ->
        C.Policy.conjoin
          (Consent.make { db; table = "diff_t"; user = user i })
          (Parity.make (i mod 2)))
  in
  let contexts = Array.init n_users (fun i -> C.Mock.context ~user:(user i) ()) in
  List.for_all
    (fun op ->
      match op with
      | Check i ->
          let reference = C.Policy.check_verbose policies.(i) contexts.(i) in
          verdict_eq reference (C.Enforce.check_verbose policies.(i) contexts.(i))
          && verdict_eq reference (C.Enforce.check_verbose policies.(i) contexts.(i))
      | Set_consent (i, b) ->
          exec db "UPDATE diff_t SET consent = ? WHERE who = ?"
            [ Db.Value.Bool b; Db.Value.Text (user i) ];
          true
      | Add_user i ->
          (* Fails on a duplicate pk — a rejected write, which must not
             perturb anything. *)
          ignore
            (Db.Database.exec db "INSERT INTO diff_t VALUES (?, ?)"
               ~params:[ Db.Value.Text (user i); Db.Value.Bool true ]);
          true
      | Drop_user i ->
          exec db "DELETE FROM diff_t WHERE who = ?" [ Db.Value.Text (user i) ];
          true)
    ops

let differential_prop pool ops =
  let saved_pool = C.Enforce.pool () in
  Fun.protect
    ~finally:(fun () ->
      C.Enforce.set_pool saved_pool;
      C.Enforce.set_parallel_cutoff 64;
      C.Enforce.set_memoization true;
      C.Enforce.bump ())
    (fun () ->
      List.for_all
        (fun (memo, parallel) -> differential_run pool ~memo ~parallel ops)
        [ (true, false); (true, true); (false, false) ])

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:80
         ~name:"memo x pool == sequential reference under mutation"
         op_arb
         (fun ops -> with_pool 3 (fun pool -> differential_prop pool ops)));
  ]

let () =
  Alcotest.run "sharding"
    [
      ("epoch", epoch_tests);
      ("footprint", footprint_tests);
      ("enforce", enforce_tests);
      ("agg", agg_tests);
      ("snapshot", snapshot_tests);
      ("hammer", hammer_tests);
      ("differential", qcheck_tests);
    ]
