(* Per-table, per-shard mutation generations.

   Each table owns a generation vector — one counter per hash shard of its primary-key space plus a
   whole-table total — and caches upstream record exactly the slots they
   read (see {!Footprint}), so a write to [users] shard 3 leaves verdicts
   over [answers] (and over [users] shard 5) warm.

   Epochs are keyed by table *name* and survive drop/recreate on
   purpose: if dropping a table reset its counters to the values a
   cached footprint recorded, a stale verdict would revalidate against a
   table with entirely different contents. Sharing one slot between
   same-named tables in different [Database.t] instances is the safe
   direction too — it can only invalidate more than necessary, never
   less. *)

(* Power of two so [shard_of_value] is a mask, fixed so a footprint
   recorded under one count is comparable forever. *)
let shard_count = 16

type table_epoch = {
  total : int Atomic.t;  (* any mutation to the table *)
  shards : int Atomic.t array;  (* per primary-key hash shard *)
}

(* Structural epoch: create/drop/clear/restore — the events that can
   change what a compiled plan certificate or schema assumption means.
   Bumped far more rarely than row mutations, which is why certificates
   revalidate against it instead of the per-shard slots. *)
let structure_counter = Atomic.make 0
let structure () = Atomic.get structure_counter

let registry : (string, table_epoch) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let fresh () =
  { total = Atomic.make 0; shards = Array.init shard_count (fun _ -> Atomic.make 0) }

let for_table name =
  match Hashtbl.find_opt registry name with
  | Some ep -> ep
  | None ->
      Mutex.lock registry_lock;
      let ep =
        match Hashtbl.find_opt registry name with
        | Some ep -> ep
        | None ->
            let ep = fresh () in
            Hashtbl.add registry name ep;
            ep
      in
      Mutex.unlock registry_lock;
      ep

let shard_of_value v = Hashtbl.hash v land (shard_count - 1)

let shard_gen ep i = Atomic.get ep.shards.(i)
let total_gen ep = Atomic.get ep.total

(* A row mutation whose primary key is known: bump that shard and the
   table total. *)
let bump_shard ep i =
  Atomic.incr ep.shards.(i);
  Atomic.incr ep.total

(* A mutation that cannot be pinned to one key (multi-row update/delete
   without a pk, clear, restore): bump every shard so any footprint over
   the table goes stale. *)
let bump_table ep =
  Array.iter Atomic.incr ep.shards;
  Atomic.incr ep.total

(* Schema-level events (create/drop/clear/restore): also move the
   structural epoch that plan certificates key on. *)
let bump_structural name =
  bump_table (for_table name);
  Atomic.incr structure_counter
