(* In-memory spans for the traced run. Each span records its name, start
   and end (monotonic seconds), the span that caused it and the request it
   belongs to. Spans are recorded only from the benchmark's own calls into
   a layer's public functions, on the calling domain, and are written out
   once, when the run ends. *)

type t = { id : int; parent : int; req : int; name : string; start : float; stop : float }

let recorded : t list ref = ref []
let next_id = ref 1
let current = ref 0 (* the open span, 0 at the root *)

let reset () =
  recorded := [];
  next_id := 1;
  current := 0

(* Runs [f] inside a span named [name]; returns its result and duration. *)
let timed ?(req = 0) name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let start = Stats.now () in
  let finish () =
    let stop = Stats.now () in
    current := parent;
    recorded := { id; parent; req; name; start; stop } :: !recorded;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let with_ ?req name f = fst (timed ?req name f)

(* Durations in seconds of every span with this name, oldest first. *)
let durations name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
       !recorded)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"req\": %d, \"name\": %s, \"start\": %s, \"end\": %s}\n"
        s.id s.parent s.req (Stats.json_string s.name) (Stats.json_number s.start)
        (Stats.json_number s.stop))
    (List.rev !recorded);
  close_out oc

(* Reads a span file back and checks that it is well formed: every line
   parses, ids are unique, every parent is an earlier-opened span of the
   file (or 0), and every child lies inside its parent's interval. *)
let validate path =
  let parse line =
    Scanf.sscanf line
      "{\"id\": %d, \"parent\": %d, \"req\": %d, \"name\": %S, \"start\": %f, \"end\": %f}"
      (fun id parent req name start stop -> { id; parent; req; name; start; stop })
  in
  let ic = open_in path in
  let rec read acc n =
    match input_line ic with
    | line -> (
        match parse line with
        | s -> read (s :: acc) (n + 1)
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
            close_in ic;
            Error (Printf.sprintf "%s:%d: not a span record" path (n + 1)))
    | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
  in
  match read [] 0 with
  | Error _ as e -> e
  | Ok [] -> Error (path ^ ": no spans")
  | Ok spans -> (
      let by_id = Hashtbl.create 1024 in
      let problems =
        List.filter_map
          (fun s ->
            if Hashtbl.mem by_id s.id then Some (Printf.sprintf "duplicate id %d" s.id)
            else begin
              Hashtbl.replace by_id s.id s;
              None
            end)
          spans
      in
      let problems =
        problems
        @ List.filter_map
            (fun s ->
              if s.stop < s.start then Some (Printf.sprintf "span %d ends before it starts" s.id)
              else if s.parent = 0 then None
              else
                match Hashtbl.find_opt by_id s.parent with
                | None -> Some (Printf.sprintf "span %d has unknown parent %d" s.id s.parent)
                | Some p when s.start < p.start || s.stop > p.stop ->
                    Some (Printf.sprintf "span %d lies outside its parent %d" s.id s.parent)
                | Some _ -> None)
            spans
      in
      match problems with
      | [] -> Ok (List.length spans)
      | p :: _ -> Error (path ^ ": " ^ p))
