(* Metric lines and the result object.  Every metric is printed by name
   with its unit; the last line of standard output is the result object
   {correct, attempted, failed, metrics}. *)

module Json = Tact_check.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A metric with nothing to measure (an empty sample set) reads 0. *)
let finite x = if Float.is_finite x then x else 0.0

let print_lines ms =
  List.iter (fun x -> Printf.printf "  %-32s %16.6g %s\n" x.name (finite x.value) x.unit_) ms

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num (finite x.value)); ("unit", Json.Str x.unit_) ]))
       ms)

let result_json ~correct ~attempted ~failed ms =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metrics_json ms);
    ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc
