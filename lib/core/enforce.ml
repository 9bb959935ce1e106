module Parallel = Sesame_parallel
module Elision = Sesame_scrutinizer.Elision

type stats = {
  hits : int;
  misses : int;
  parallel_fanouts : int;
  elisions : int;
  pushdowns : int;
}

let hits = Atomic.make 0
let misses = Atomic.make 0
let parallel_fanouts = Atomic.make 0
let elisions = Atomic.make 0
let pushdowns = Atomic.make 0

let stats () =
  {
    hits = Atomic.get hits;
    misses = Atomic.get misses;
    parallel_fanouts = Atomic.get parallel_fanouts;
    elisions = Atomic.get elisions;
    pushdowns = Atomic.get pushdowns;
  }

let reset_stats () =
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set parallel_fanouts 0;
  Atomic.set elisions 0;
  Atomic.set pushdowns 0

let note_pushdown () = Atomic.incr pushdowns
let note_elision () = Atomic.incr elisions

(* ------------------------------------------------------------------ *)
(* Validity. A verdict may depend on database state its check read, and
   on policy bindings: rebinding a (table, column) policy changes what
   future rows mean. A cached verdict carries the read footprint its
   computation recorded — the (table, shard) generation slots it
   actually depended on (see {!Sesame_db.Footprint}) — plus the [base]
   it was computed under, and is reusable while both are unchanged. A
   write to one shard of one table retires exactly the verdicts that
   read it. *)

let bumps = Atomic.make 0
let bump () = Atomic.incr bumps

(* Binding bumps plus schema-level events (create/drop/clear/restore).
   Row mutations are excluded on purpose — they are covered per-slot by
   the footprints. *)
let base () = Atomic.get bumps + Sesame_db.Epoch.structure ()

(* The one validity test every cache here applies: may a value computed
   under base [b] with read footprint [fp] still be reused? *)
let current b fp = b = base () && Sesame_db.Footprint.valid fp

let set_precise_invalidation on =
  if not on then
    invalid_arg "Enforce.set_precise_invalidation: footprint invalidation is the only mode"

let precise_invalidation () = true

let memoize = Atomic.make true
let set_memoization on = Atomic.set memoize on
let memoization () = Atomic.get memoize

(* Elision and pushdown default on: with no plan installed and no
   binding translation registered they are exact no-ops, so the flags
   only matter once an app compiles its static verdicts in. *)
let elide = Atomic.make true
let set_elision on = Atomic.set elide on
let elision () = Atomic.get elide

let pushdown = Atomic.make true
let set_pushdown on = Atomic.set pushdown on
let pushdown_enabled () = Atomic.get pushdown

let parallel_cutoff = Atomic.make 64
let set_parallel_cutoff n = Atomic.set parallel_cutoff (max 2 n)

(* The pool is resolved lazily so merely linking the library never spawns
   domains: first use consults PARALLEL_DOMAINS via the shared default
   pool, and a pool without workers is treated as "no pool". *)
type pool_setting = Unresolved | Pool of Parallel.t | No_pool

let pool_setting = ref Unresolved
let pool_lock = Mutex.create ()

let set_pool p =
  Mutex.lock pool_lock;
  pool_setting := (match p with Some p -> Pool p | None -> No_pool);
  Mutex.unlock pool_lock

let pool () =
  Mutex.lock pool_lock;
  let resolved =
    match !pool_setting with
    | Pool p -> Some p
    | No_pool -> None
    | Unresolved ->
        let d = Parallel.default () in
        let v = if Parallel.domains d > 1 then Pool d else No_pool in
        pool_setting := v;
        (match v with Pool p -> Some p | _ -> None)
  in
  Mutex.unlock pool_lock;
  resolved

(* ------------------------------------------------------------------ *)
(* The enforcement plan: elision certificates compiled from the static
   pass. A certificate says "every check of family F at sink S (under
   endpoint E) whose context satisfies the guard is identically Ok".
   Certificates are keyed by [base] (binding bumps + structural schema
   events): while the base an entry was last validated under is current,
   the fast path is one guard evaluation; when it moves, the entry's
   [revalidate] closure (supplied by the installer, typically checking
   policy-binding versions and table schemas) must re-approve it or the
   entry is dropped and the residual runtime check runs. Row mutations
   never move [base] — a certificate's claim is about binding/schema
   state, which rows cannot change — so a certificate can never outlive
   the verdicts it stands in for. *)

module Plan = struct
  type entry = {
    pe_endpoint : string option;  (* None = any endpoint *)
    pe_sink : string;
    pe_family : string;
    pe_guard : Context.t -> bool;
    pe_revalidate : unit -> bool;
    pe_witness : string;
    pe_checked_at : int Atomic.t;
  }

  let entry ?endpoint ~sink ~family ~guard ~revalidate ~witness () =
    {
      pe_endpoint = endpoint;
      pe_sink = sink;
      pe_family = family;
      pe_guard = guard;
      pe_revalidate = revalidate;
      pe_witness = witness;
      pe_checked_at = Atomic.make min_int;
    }

  (* An immutable snapshot list behind an Atomic: the hot path scans
     lock-free; installs and drops CAS-replace the list. The plan is
     tiny (one entry per certified (endpoint, sink, family) triple). *)
  let cell : entry list Atomic.t = Atomic.make []

  let rec install e =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (e :: cur)) then install e

  let size () = List.length (Atomic.get cell)
  let active () = Atomic.get cell <> []

  (* Endpoint release-sink declarations: "everything endpoint E releases
     is checked under one of these sinks (with the request context)".
     They let data-wrapping sites (query_agg) consult certificates for
     checks that will only run later, at release time. *)
  let decls : (string * string list) list Atomic.t = Atomic.make []

  let rec declare_endpoint_sinks ~endpoint sinks =
    let cur = Atomic.get decls in
    let next = (endpoint, sinks) :: List.remove_assoc endpoint cur in
    if not (Atomic.compare_and_set decls cur next) then declare_endpoint_sinks ~endpoint sinks

  let clear () =
    Atomic.set cell [];
    Atomic.set decls []

  let rec drop e =
    let cur = Atomic.get cell in
    let next = List.filter (fun x -> x != e) cur in
    if not (Atomic.compare_and_set cell cur next) then drop e

  let path_covers declared actual =
    String.equal declared actual || String.starts_with ~prefix:(declared ^ "/") actual

  let endpoint_matches entry ctx =
    match entry.pe_endpoint with
    | None -> true
    | Some e -> (
        match Context.endpoint ctx with Some ep -> path_covers e ep | None -> false)

  let endpoint_sinks ctx =
    match Context.endpoint ctx with
    | None -> None
    | Some ep ->
        List.find_map
          (fun (e, sinks) -> if path_covers e ep then Some sinks else None)
          (Atomic.get decls)

  (* Is this one entry usable right now? Entries current against [base]
     (binding bumps + structural events; row traffic does not move it)
     answer with a guard evaluation; stale ones must revalidate first. *)
  let entry_live entry =
    let e = base () in
    if Atomic.get entry.pe_checked_at = e then true
    else if entry.pe_revalidate () then begin
      Atomic.set entry.pe_checked_at e;
      true
    end
    else begin
      drop entry;
      false
    end

  let certified_leaf ~sink ~family ctx =
    List.exists
      (fun entry ->
        String.equal entry.pe_sink sink
        && String.equal entry.pe_family family
        && endpoint_matches entry ctx
        && entry_live entry && entry.pe_guard ctx)
      (Atomic.get cell)

  (* A whole policy is covered iff every leaf of its conjunction tree is
     certified at this context's sink. *)
  let covers policy ctx =
    match Context.sink ctx with
    | None -> false
    | Some sink ->
        let rec walk policy =
          match Policy.members policy with
          | None -> certified_leaf ~sink ~family:(Policy.name policy) ctx
          | Some ms -> List.for_all walk ms
        in
        walk policy

  (* Compile the static pass's satisfying clause into a runtime guard.
     The guard re-checks each atom against the concrete context, so an
     over-claimed site model can only lose elisions, never verdicts.
     [Principal_in] mirrors the apps' acting-principal convention: the
     "recipient" custom field when present, the user otherwise. *)
  let principal ctx =
    match Context.custom ctx "recipient" with Some r -> Some r | None -> Context.user ctx

  let atom_holds ctx (a : Elision.atom) =
    match a with
    | Elision.Sink_is s -> ( match Context.sink ctx with Some s' -> String.equal s s' | None -> false)
    | Elision.Sink_not s -> (
        match Context.sink ctx with Some s' -> not (String.equal s s') | None -> false)
    | Elision.Custom_eq (k, v) -> (
        match Context.custom ctx k with Some v' -> String.equal v v' | None -> false)
    | Elision.Custom_not (k, v) -> (
        match Context.custom ctx k with Some v' -> not (String.equal v v') | None -> true)
    | Elision.Principal_in ps -> (
        match principal ctx with Some p -> List.exists (String.equal p) ps | None -> false)

  let guard_of_atoms atoms ctx = List.for_all (atom_holds ctx) atoms
end

(* ------------------------------------------------------------------ *)
(* Per-domain verdict cache. Domain-local on purpose: no lock on the hot
   path, and invalidation needs no cross-domain coordination — each
   domain validates an entry against the live base and generation slots
   at its next lookup. The key pairs the policy instance id with the
   full context; equality is structural over the whole context, so the
   (Hashtbl.hash) fingerprint only routes to a bucket and can never
   alias two different contexts into one verdict. *)

type entry = {
  e_verdict : (unit, string) result;
  e_base : int;  (* [base ()] at compute time *)
  e_fp : Sesame_db.Footprint.snapshot;
}

let caches : (int * Context.t, entry) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

(* Fresh policy instances (one-shot ids) leave dead entries behind; a cap
   bounds the table. Resetting forgets live entries too, but a reset is
   just a cold start, never a wrong answer. *)
let max_entries = 65536

(* ------------------------------------------------------------------ *)

let first_denial results =
  (* Member order = check order: the reported denial is the leftmost one,
     exactly as the sequential short-circuit reports it. *)
  let n = Array.length results in
  let rec scan i =
    if i = n then Ok ()
    else match results.(i) with Ok () -> scan (i + 1) | Error _ as e -> e
  in
  scan 0

let rec check_verbose policy ctx =
  if Policy.is_no_policy policy then Ok ()
  else if Atomic.get elide && Plan.active () && Plan.covers policy ctx then begin
    (* Every leaf of the conjunction is certified identically-Ok for
       this context: the whole check is discharged statically. Elision
       only ever stands in for an Ok, so verdicts and denial messages
       are byte-identical to the reference. *)
    Atomic.incr elisions;
    Ok ()
  end
  else if not (Atomic.get memoize) then compute policy ctx
  else begin
    let tbl = Domain.DLS.get caches in
    let key = (Policy.id policy, ctx) in
    let live =
      match Hashtbl.find_opt tbl key with
      | None -> None
      | Some e ->
          if current e.e_base e.e_fp then Some e
          else begin
            (* Something this verdict read has changed (or a binding was
               rebound): retire just this entry. *)
            Hashtbl.remove tbl key;
            None
          end
    in
    match live with
    | Some e ->
        Atomic.incr hits;
        (* The reused verdict's reads become the caller's reads — an
           enclosing recording (an aggregate-cache capture, an outer
           conjunction) must inherit them to stay sound. *)
        Sesame_db.Footprint.merge_ambient e.e_fp;
        e.e_verdict
    | None ->
        Atomic.incr misses;
        let b = base () in
        let verdict, fp = Sesame_db.Footprint.scope (fun () -> compute policy ctx) in
        (* A deadline expiry is never cached: it is a fact about this
           request's budget, not about the policy — the next request
           must recompute. A check that itself mutated the database
           bumped a shard its footprint recorded (or the structural
           epoch), so the store-time validity test below fails and the
           verdict — which belongs to the old world — is not stored. *)
        let budget_refusal =
          match verdict with
          | Error msg -> Sesame_deadline.is_deadline_error msg
          | Ok () -> false
        in
        if (not budget_refusal) && current b fp then begin
          if Hashtbl.length tbl >= max_entries then Hashtbl.reset tbl;
          Hashtbl.replace tbl key { e_verdict = verdict; e_base = b; e_fp = fp }
        end;
        verdict
  end

and compute policy ctx =
  match Policy.members policy with
  | None -> Policy.check_verbose policy ctx
  | Some members -> (
      let arr = Array.of_list members in
      let n = Array.length arr in
      let wide = n >= Atomic.get parallel_cutoff in
      match (if wide then pool () else None) with
      | Some p ->
          Atomic.incr parallel_fanouts;
          (* Evaluate every member (no short-circuit), then report the
             leftmost denial: same verdict and message as the sequential
             walk, paid for with the tail checks the sequential walk
             would have skipped on a denial.

             The ambient deadline is domain-local, so it is captured
             here and re-installed inside each pool task; a task whose
             budget is already gone refuses without computing, so a
             wide conjunction abandons in one sweep of cheap refusals
             rather than grinding through its tail over budget. *)
          let budget = Sesame_deadline.current () in
          let expired_verdict =
            lazy (Error (Sesame_deadline.error_message "policy fan-out"))
          in
          (* Footprint scopes are domain-local, so a member evaluated on
             a pool worker records into the worker's (empty) stack. Each
             task therefore runs under its own scope and ships its
             footprint back; merging them here makes the caller's
             ambient scope see everything any member read — exactly what
             the sequential walk's nested scopes would have recorded. *)
          let results =
            Parallel.map_array ~cutoff:1 p
              (fun m ->
                if Sesame_deadline.expired budget then
                  (Lazy.force expired_verdict, Sesame_db.Footprint.empty)
                else
                  Sesame_db.Footprint.scope (fun () ->
                      Sesame_deadline.with_deadline budget (fun () ->
                          check_verbose m ctx)))
              arr
          in
          Array.iter (fun (_, fp) -> Sesame_db.Footprint.merge_ambient fp) results;
          first_denial (Array.map fst results)
      | None ->
          let rec walk i =
            if i = n then Ok ()
            else
              match check_verbose arr.(i) ctx with
              | Ok () -> walk (i + 1)
              | Error _ as e -> e
          in
          walk 0)

let check policy ctx = Result.is_ok (check_verbose policy ctx)

(* ------------------------------------------------------------------ *)
(* Validity capture for external caches (Sesame_conn's per-group
   aggregate cache): run a computation, come back with a token that
   answers "may I still reuse its result?" — the same base + footprint
   discipline the verdict cache uses. *)

module Validity = struct
  type t = { v_base : int; v_fp : Sesame_db.Footprint.snapshot }

  let capture f =
    (* Sample the base before running: if a binding rebinds or a table
       drops mid-computation, the token is born stale — conservative,
       never wrong. *)
    let b = base () in
    let v, fp = Sesame_db.Footprint.scope f in
    (v, { v_base = b; v_fp = fp })

  let valid { v_base; v_fp } = current v_base v_fp
  let merge_ambient { v_fp; _ } = Sesame_db.Footprint.merge_ambient v_fp
end
