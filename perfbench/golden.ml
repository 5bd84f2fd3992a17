(* Golden modeled results: one line per design a workload produces, with
   its exact cycles, DRAM-busy cycles, words per array and area.  Floats
   print with 17 significant digits, which round-trips every double, so
   two lines are equal exactly when the results are. *)

let num = Printf.sprintf "%.17g"

let traffic t =
  String.concat ";" (List.map (fun (a, w) -> a ^ "=" ^ num w) t)

let line workload (h : Workload.hw) =
  let a = h.Workload.area in
  String.concat "\t"
    [ workload; h.Workload.key; num h.Workload.cycles; num h.Workload.dram_cycles;
      num a.Area_model.logic; num a.Area_model.ff; num a.Area_model.bram;
      num a.Area_model.dsp; traffic h.Workload.reads; traffic h.Workload.writes ]

let key_of l =
  match String.split_on_char '\t' l with
  | w :: k :: _ -> w ^ "\t" ^ k
  | _ -> failwith ("Golden: malformed line " ^ l)

let header = "workload\tdesign\tcycles\tdram_cycles\tlogic\tff\tbram\tdsp\treads\twrites"

let write path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (header :: List.sort compare lines);
  close_out oc

let load path =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in path in
  (try
     ignore (input_line ic);
     while true do
       let l = input_line ic in
       Hashtbl.replace tbl (key_of l) l
     done
   with End_of_file -> close_in ic);
  tbl

(* share of [lines] recorded verbatim in the golden table *)
let match_frac golden lines =
  let hit = List.filter (fun l -> Hashtbl.find_opt golden (key_of l) = Some l) lines in
  float_of_int (List.length hit) /. float_of_int (Int.max 1 (List.length lines))
