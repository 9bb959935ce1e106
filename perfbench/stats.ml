(* Order statistics over latency samples, and the one-line result object. *)

let now () = Sesame_clock.now_s ()

(* Nearest-rank percentile, [p] in 0..100. *)
let percentile p samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile 50.0 samples
let median_list l = median (Array.of_list l)

(* Samples strictly above the [p]th percentile: a reported percentile
   needs at least ten beyond it. *)
let beyond p samples =
  let cut = percentile p samples in
  Array.fold_left (fun n x -> if x > cut then n + 1 else n) 0 samples

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* All the digits a double carries, and never a non-JSON token. *)
let json_number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "-1"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
