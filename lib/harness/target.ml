type t = {
  name : string;
  prog : Ir.program;
  bench : Suite.bench option;
  tiles : (Sym.t * int) list;
  sizes : (Sym.t * int) list;
}

let ( let* ) = Result.bind

(* One [Suite.extended ()] per lookup, as the symbol ids it mints show up
   in printed IR. *)
let find ~what name =
  let benches = Suite.extended () in
  match Suite.find benches name with
  | b -> Ok b
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown %s %S (try: %s)" what name
           (String.concat ", " (List.map (fun b -> b.Suite.name) benches)))

let bench = find ~what:"benchmark"

let load file =
  match
    let prog =
      Parser.program_of_string (In_channel.with_open_bin file In_channel.input_all)
    in
    ignore (Validate.check_program prog);
    prog
  with
  | prog -> Ok prog
  | exception (Sys_error msg | Parser.Parse_error msg | Validate.Type_error msg)
    ->
      (* a failed open already names the path *)
      let prefix = file ^ ": " in
      Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)

let bindings ~cmd ~flag prog params spec =
  let bind (name, v) =
    let fail why = Error (Printf.sprintf "%s: %s %s=%d: %s" cmd flag name v why) in
    match List.find_opt (fun s -> Sym.base s = name) params with
    | None ->
        fail
          (Printf.sprintf "no size parameter %s (have: %s)" name
             (String.concat ", " (List.map Sym.base params)))
    | Some _ when v <= 0 -> fail "values must be positive"
    | Some s -> (
        match Ir.max_sizes_bound prog s with
        | Some m when v > m ->
            fail (Printf.sprintf "above the declared maxsize %s %d" name m)
        | _ -> Ok (s, v))
  in
  List.fold_right
    (fun b acc ->
      let* sv = bind b in
      let* rest = acc in
      Ok (sv :: rest))
    spec (Ok [])

let resolve ~cmd ?(files_only = false) ?(need_sizes = false) ?(tiles = [])
    ?(sizes = []) target =
  let fail why = Error (Printf.sprintf "%s: %s: %s" cmd target why) in
  if files_only || Sys.file_exists target then
    let* prog = load target in
    let params = prog.Ir.size_params in
    let* sizes = bindings ~cmd ~flag:"--sizes" prog params sizes in
    let* () =
      if need_sizes && sizes = [] then
        fail "--sizes NAME=N,... is required for .ppl targets"
      else Ok ()
    in
    let* tiles = bindings ~cmd ~flag:"--tiles" prog params tiles in
    Ok { name = Filename.basename target; prog; bench = None; tiles; sizes }
  else
    let* b = find ~what:"benchmark or file" target in
    let* () =
      if tiles <> [] then
        fail "--tiles applies to .ppl targets only (-c fixes a benchmark's tiles)"
      else Ok ()
    in
    let* over =
      bindings ~cmd ~flag:"--sizes" b.Suite.prog
        (List.map fst b.Suite.sim_sizes) sizes
    in
    let sizes =
      List.map
        (fun (s, v) -> (s, Option.value (List.assq_opt s over) ~default:v))
        b.Suite.sim_sizes
    in
    Ok { name = b.Suite.name; prog = b.Suite.prog; bench = Some b;
         tiles = b.Suite.tiles; sizes }
