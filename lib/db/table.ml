(* Rows live in a growable array; deleted slots are marked dead (slots are
   never reused, so a slot identifies a row for the life of the table).
   The primary-key index maps key value -> slot; secondary indexes map a
   column value -> the slots holding it and are kept exact across
   insert/update/delete, so an equality probe plus the ordinary WHERE
   filter is equivalent to a full scan.

   Concurrency: a writer-preferring RW lock per table. Mutations and
   index builds run under [wr]; reads run under [rd] — index probes
   evaluate in place (candidate lists are tiny), full scans copy the
   slot-pointer array under [rd] and evaluate predicates off-lock, so a
   10k-row scan holds the lock for a pointer memcpy, not for 10k
   predicate evaluations. Stored rows are immutable (insert copies,
   update installs a fresh row), so a copied snapshot is a consistent
   statement-level view even while writers proceed.

   Invalidation: every mutation bumps the table's per-shard epoch vector
   ({!Epoch}) — the shard of the touched primary key when it is known,
   every shard otherwise — and reads record what they depended on into
   the ambient {!Footprint} scope: pk-equality probes record one shard,
   everything else (secondary probes, scans, folds) records the whole
   table. Caches upstream revalidate against exactly those slots. *)

type t = {
  schema : Schema.t;
  name : string;
  ep : Epoch.table_epoch;
  lock : Rwlock.t;
  mutable rows : Row.t option array;
  mutable size : int;  (* slots used, including dead ones *)
  mutable live : int;
  pk_index : (Value.t, int) Hashtbl.t option;
  pk_col : int option;
  secondary : (int, (Value.t, int list ref) Hashtbl.t) Hashtbl.t;
      (* column position -> value -> slots (unordered) *)
  votes : int Atomic.t array;
      (* per column: full scans that could have used an index on it *)
  want_index : bool Atomic.t array;
      (* per column: votes crossed the threshold; the build itself is
         deferred to the next [wr] section so it never runs while
         concurrent readers probe [secondary] *)
}

(* Auto-index a column once this many full scans carried an equality
   predicate on it and the table is big enough for probes to win. *)
let auto_index_scans = 8
let auto_index_min_rows = 256

(* Cooperative cancellation: long scans poll the ambient request deadline
   every [scan_checkpoint_rows] slots (power of two so the poll gate is a
   mask). An expired budget aborts the scan via [Sesame_deadline.Expired]
   before any mutation has been applied — callers observe a structured
   refusal, never a partial row set presented as complete. [fold]/[iter]
   stay checkpoint-free on purpose: they feed durable checkpointing,
   which must not be aborted by whichever request happened to trigger it. *)
let scan_checkpoint_rows = 256

let scan_checkpoint counter =
  incr counter;
  if !counter land (scan_checkpoint_rows - 1) = 0 then begin
    Sesame_faults.hit Sesame_faults.Db_scan_cancel;
    Sesame_deadline.check "db scan"
  end

let create schema =
  let pk_col = Option.map (Schema.column_index_exn schema) (Schema.primary_key schema) in
  let name = Schema.name schema in
  {
    schema;
    name;
    ep = Epoch.for_table name;
    lock = Rwlock.create ();
    rows = Array.make 16 None;
    size = 0;
    live = 0;
    pk_index = Option.map (fun _ -> Hashtbl.create 64) pk_col;
    pk_col;
    secondary = Hashtbl.create 4;
    votes = Array.init (Schema.arity schema) (fun _ -> Atomic.make 0);
    want_index = Array.init (Schema.arity schema) (fun _ -> Atomic.make false);
  }

let schema t = t.schema

let length t =
  Footprint.record_table t.name t.ep;
  Rwlock.rd t.lock (fun () -> t.live)

let grow t =
  if t.size = Array.length t.rows then begin
    let bigger = Array.make (2 * Array.length t.rows) None in
    Array.blit t.rows 0 bigger 0 t.size;
    t.rows <- bigger
  end

let pk_value t row = Option.map (fun i -> row.(i)) t.pk_col

(* --- secondary-index maintenance ---------------------------------- *)

let index_add index value slot =
  match Hashtbl.find_opt index value with
  | Some bucket -> bucket := slot :: !bucket
  | None -> Hashtbl.add index value (ref [ slot ])

let index_remove index value slot =
  match Hashtbl.find_opt index value with
  | Some bucket -> bucket := List.filter (fun s -> s <> slot) !bucket
  | None -> ()

let secondary_add t row slot =
  Hashtbl.iter (fun col index -> index_add index row.(col) slot) t.secondary

let secondary_remove t row slot =
  Hashtbl.iter (fun col index -> index_remove index row.(col) slot) t.secondary

let secondary_replace t ~old_row ~new_row slot =
  Hashtbl.iter
    (fun col index ->
      if not (Value.equal old_row.(col) new_row.(col)) then begin
        index_remove index old_row.(col) slot;
        index_add index new_row.(col) slot
      end)
    t.secondary

(* Caller must hold [wr]. *)
let build_index_unlocked t col =
  if not (Hashtbl.mem t.secondary col) then begin
    let index = Hashtbl.create (max 64 t.live) in
    for slot = 0 to t.size - 1 do
      match t.rows.(slot) with
      | Some row -> index_add index row.(col) slot
      | None -> ()
    done;
    Hashtbl.add t.secondary col index
  end;
  Atomic.set t.votes.(col) 0;
  Atomic.set t.want_index.(col) false

(* Caller must hold [wr]: materialize any index the vote counters asked
   for. Readers only flag; builds happen here so [secondary] is never
   resized under a concurrent probe. *)
let build_pending_unlocked t =
  Array.iteri
    (fun col want -> if Atomic.get want then build_index_unlocked t col)
    t.want_index

(* A read path's entry hook: if votes flagged an index, take the write
   lock once and build it before the read proceeds. *)
let maybe_build_pending t =
  if Array.exists Atomic.get t.want_index then
    Rwlock.wr t.lock (fun () -> build_pending_unlocked t)

let ensure_index t column =
  match Schema.column_index t.schema column with
  | None ->
      invalid_arg
        (Printf.sprintf "table %s has no column %s" (Schema.name t.schema) column)
  | Some col -> Rwlock.wr t.lock (fun () -> build_index_unlocked t col)

let has_index t column =
  match Schema.column_index t.schema column with
  | Some col -> Rwlock.rd t.lock (fun () -> Hashtbl.mem t.secondary col)
  | None -> false

(* Candidate slots from an index, if any equality predicate in [where]
   hits one. [None] means "no index applies: scan". Candidates are a
   superset filter — every candidate is still checked against the full
   WHERE clause — sorted so results keep insertion (slot) order.
   Caller must hold [rd] or [wr]; records the footprint of the probe
   (one shard for a pk probe — key absence is shard-local too — the
   whole table for a secondary probe, whose buckets shift under any
   write). *)
let index_candidates_unlocked t ~where =
  let pk =
    match (t.pk_col, t.pk_index) with
    | Some col, Some index -> (
        match Expr.equality_on where (Schema.column_name t.schema col) with
        | Some key -> (
            Footprint.record_shard t.name t.ep (Epoch.shard_of_value key);
            match Hashtbl.find_opt index key with
            | Some slot -> Some [ slot ]
            | None -> Some [])
        | None -> None)
    | _ -> None
  in
  match pk with
  | Some _ as hit -> hit
  | None ->
      Hashtbl.fold
        (fun col index acc ->
          match acc with
          | Some _ -> acc
          | None -> (
              match Expr.equality_on where (Schema.column_name t.schema col) with
              | Some key -> (
                  Footprint.record_table t.name t.ep;
                  match Hashtbl.find_opt index key with
                  | Some bucket -> Some (List.sort compare !bucket)
                  | None -> Some [])
              | None -> acc))
        t.secondary None

(* On a full scan, vote for every equality column the scan could have
   probed; flag the column once the votes say the scan pattern repeats
   (the build itself waits for a [wr] section). Safe under [rd]: the
   counters are atomics. *)
let record_scan_votes t ~where =
  if t.live >= auto_index_min_rows then
    List.iter
      (fun name ->
        match Schema.column_index t.schema name with
        | Some col
          when (not (Hashtbl.mem t.secondary col)) && t.pk_col <> Some col
               && Expr.equality_on where name <> None ->
            let votes = 1 + Atomic.fetch_and_add t.votes.(col) 1 in
            if votes >= auto_index_scans then Atomic.set t.want_index.(col) true
        | _ -> ())
      (Expr.columns where)

(* Caller must hold [wr] (mutation read phase: checkpoint polls may
   abort the statement here, before any row has changed). *)
let matching_slots_unlocked t ~where =
  match index_candidates_unlocked t ~where with
  | Some candidates ->
      List.filter
        (fun slot ->
          match t.rows.(slot) with
          | Some row -> Expr.eval_exn t.schema row where
          | None -> false)
        candidates
  | None ->
      Footprint.record_table t.name t.ep;
      record_scan_votes t ~where;
      let scanned = ref 0 in
      let acc = ref [] in
      for slot = t.size - 1 downto 0 do
        scan_checkpoint scanned;
        match t.rows.(slot) with
        | Some row -> if Expr.eval_exn t.schema row where then acc := slot :: !acc
        | None -> ()
      done;
      !acc

(* ------------------------------------------------------------------ *)

let bump_rows t touched =
  (* [touched]: the pk values of the mutated rows. With a primary key,
     bump exactly their shards; without one, the whole table. *)
  match t.pk_col with
  | Some _ ->
      List.iter (fun key -> Epoch.bump_shard t.ep (Epoch.shard_of_value key)) touched
  | None -> Epoch.bump_table t.ep

let insert t row =
  match Schema.validate_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
      Rwlock.wr t.lock (fun () ->
          build_pending_unlocked t;
          (* The duplicate check is a read: success depends on the key's
             shard (absence included), so record it — a verdict computed
             through a failed insert stays cached until that shard moves. *)
          (match pk_value t row with
          | Some key -> Footprint.record_shard t.name t.ep (Epoch.shard_of_value key)
          | None -> Footprint.record_table t.name t.ep);
          let dup =
            match (pk_value t row, t.pk_index) with
            | Some key, Some index -> Hashtbl.mem index key
            | _ -> false
          in
          if dup then
            Error
              (Printf.sprintf "table %s: duplicate primary key %s" (Schema.name t.schema)
                 (Value.to_string (Option.get (pk_value t row))))
          else begin
            grow t;
            let stored = Array.copy row in
            t.rows.(t.size) <- Some stored;
            (match (pk_value t row, t.pk_index) with
            | Some key, Some index -> Hashtbl.replace index key t.size
            | _ -> ());
            secondary_add t stored t.size;
            t.size <- t.size + 1;
            t.live <- t.live + 1;
            (match pk_value t row with
            | Some key -> Epoch.bump_shard t.ep (Epoch.shard_of_value key)
            | None -> Epoch.bump_table t.ep);
            Ok ()
          end)

let insert_exn t row =
  match insert t row with Ok () -> () | Error msg -> invalid_arg msg

(* Reads either resolve through an index (tiny candidate lists, checked
   in place under [rd]) or copy the slot array under [rd] and scan the
   copy off-lock. The copy is the snapshot: rows are immutable once
   stored, so concurrent writers cannot tear it — Retrain Model's 10k-row
   scan sees the table exactly as of its start. *)
type 'a read_plan = Resolved of 'a | Scan of Row.t option array

let select ?limit t ~where =
  maybe_build_pending t;
  let cap = match limit with Some n -> max 0 n | None -> max_int in
  if cap = 0 then []
  else
    let plan =
      Rwlock.rd t.lock (fun () ->
          match index_candidates_unlocked t ~where with
          | Some candidates ->
              let rec take n = function
                | slot :: rest when n > 0 -> (
                    match t.rows.(slot) with
                    | Some row when Expr.eval_exn t.schema row where ->
                        row :: take (n - 1) rest
                    | Some _ | None -> take n rest)
                | _ -> []
              in
              Resolved (take cap candidates)
          | None ->
              Footprint.record_table t.name t.ep;
              record_scan_votes t ~where;
              Scan (Array.sub t.rows 0 t.size))
    in
    (* A scan whose votes just crossed the threshold flags the index;
       build it now (after the read lock is released, under [wr]) so the
       adaptive index exists as soon as the deciding scan returns. *)
    maybe_build_pending t;
    match plan with
    | Resolved rows -> rows
    | Scan snap ->
        (* Direct walk of the snapshot, stopping as soon as [limit] rows
           matched — no candidate list is materialized, no lock held. *)
        let scanned = ref 0 in
        let acc = ref [] in
        let found = ref 0 in
        let slot = ref 0 in
        let n = Array.length snap in
        while !found < cap && !slot < n do
          scan_checkpoint scanned;
          (match snap.(!slot) with
          | Some row ->
              if Expr.eval_exn t.schema row where then begin
                acc := row :: !acc;
                incr found
              end
          | None -> ());
          incr slot
        done;
        List.rev !acc

let update t ~where ~set =
  Rwlock.wr t.lock (fun () ->
      build_pending_unlocked t;
      let slots = matching_slots_unlocked t ~where in
      (* Dry-run all updates first so a failure mutates nothing. *)
      let updated =
        List.map
          (fun slot ->
            let row = Option.get t.rows.(slot) in
            let row' =
              List.fold_left (fun r (col, v) -> Row.set t.schema r col v) row set
            in
            (slot, row'))
          slots
      in
      let validation =
        List.fold_left
          (fun acc (_, row') ->
            match acc with Error _ -> acc | Ok () -> Schema.validate_row t.schema row')
          (Ok ()) updated
      in
      let pk_conflict =
        (* A PK update may collide with an existing row outside the update set. *)
        match (t.pk_col, t.pk_index) with
        | Some col, Some index ->
            List.find_opt
              (fun (slot, row') ->
                let key' = row'.(col) in
                match Hashtbl.find_opt index key' with
                | Some other -> other <> slot
                | None -> false)
              updated
        | _ -> None
      in
      match (validation, pk_conflict) with
      | (Error _ as e), _ -> e
      | Ok (), Some (_, row') ->
          Error
            (Printf.sprintf "table %s: update would duplicate primary key %s"
               (Schema.name t.schema)
               (Value.to_string row'.(Option.get t.pk_col)))
      | Ok (), None ->
          let touched = ref [] in
          List.iter
            (fun (slot, row') ->
              let old_row = Option.get t.rows.(slot) in
              (match (t.pk_col, t.pk_index) with
              | Some col, Some index ->
                  (* Old and new key shards both move: a verdict keyed on
                     either sees the change. *)
                  touched := old_row.(col) :: !touched;
                  if not (Value.equal old_row.(col) row'.(col)) then begin
                    touched := row'.(col) :: !touched;
                    Hashtbl.remove index old_row.(col);
                    Hashtbl.replace index row'.(col) slot
                  end
              | _ -> ());
              secondary_replace t ~old_row ~new_row:row' slot;
              t.rows.(slot) <- Some row')
            updated;
          if updated <> [] then bump_rows t !touched;
          Ok (List.length updated))

let delete t ~where =
  Rwlock.wr t.lock (fun () ->
      build_pending_unlocked t;
      let slots = matching_slots_unlocked t ~where in
      let touched = ref [] in
      List.iter
        (fun slot ->
          (match t.rows.(slot) with
          | Some row ->
              (match (t.pk_col, t.pk_index) with
              | Some col, Some index ->
                  touched := row.(col) :: !touched;
                  Hashtbl.remove index row.(col)
              | _ -> ());
              secondary_remove t row slot
          | None -> ());
          t.rows.(slot) <- None;
          t.live <- t.live - 1)
        slots;
      if slots <> [] then bump_rows t !touched;
      List.length slots)

let snapshot t =
  Footprint.record_table t.name t.ep;
  Rwlock.rd t.lock (fun () -> Array.sub t.rows 0 t.size)

let fold t ~init ~f =
  let snap = snapshot t in
  Array.fold_left
    (fun acc slot -> match slot with Some row -> f acc row | None -> acc)
    init snap

let iter t ~f = fold t ~init:() ~f:(fun () row -> f row)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc row -> row :: acc))

let of_rows schema rows =
  let t = create schema in
  let rec go = function
    | [] -> Ok t
    | row :: rest -> (
        match insert t row with
        | Ok () -> go rest
        | Error msg ->
            Error (Printf.sprintf "table %s: checkpoint row rejected: %s" (Schema.name schema) msg))
  in
  go rows

let clear t =
  Rwlock.wr t.lock (fun () ->
      t.rows <- Array.make 16 None;
      t.size <- 0;
      t.live <- 0;
      Option.iter Hashtbl.reset t.pk_index;
      Hashtbl.iter (fun _ index -> Hashtbl.reset index) t.secondary;
      Array.iter (fun v -> Atomic.set v 0) t.votes;
      Array.iter (fun w -> Atomic.set w false) t.want_index);
  Epoch.bump_structural t.name
