(* Golden hardware-diagnostics gate: the structural validator, the
   semantic linter and their union ([Hw_check.check], [Hw_lint.check],
   [Hw_lint.check_all]), in text and JSON, plus every memory's kind and
   reader/writer port counts, for every benchmark of [Suite.extended]
   and every corpus program under all three hardware configurations,
   must keep the exact bytes recorded in [hw_diag_golden.tsv].  The
   table stores one row per (target, config) holding one MD5 digest per
   view; a mismatch names each changed view.

   When a change is intended, the test writes the full table it computed
   to [hw_diag_golden.actual] in its build directory (_build/default/test);
   review the change and copy that file over test/hw_diag_golden.tsv. *)

let configs =
  [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let golden_file = "hw_diag_golden.tsv"
let actual_file = "hw_diag_golden.actual"
let digest s = Digest.to_hex (Digest.string s)

(* every corpus program, with the tiles it is lowered under *)
let corpus =
  [ ("average.ppl", [ ("n", 1024) ]);
    ("saxpy.ppl", [ ("n", 1024) ]);
    ("possum.ppl", [ ("n", 4096) ]);
    ("rowdot.ppl", [ ("m", 1024); ("n", 1024) ]);
    ("bad_race.ppl", [ ("n", 64) ]);
    ("bad_nonaffine.ppl", [ ("n", 64) ]) ]

let view_names =
  [ "check.text"; "check.json"; "lint.text"; "lint.json"; "all.text";
    "all.json"; "mems" ]

let views (d : Hw.design) =
  let text ds = Format.asprintf "%a" Diagnostic.pp_list ds in
  let json ds = Json.to_string (Diagnostic.list_to_json ds) in
  let check = Hw_check.check d
  and lint = Hw_lint.check d
  and all = Hw_lint.check_all d in
  let mems =
    String.concat "\n"
      (List.map
         (fun m ->
           Printf.sprintf "%s %s R=%d W=%d" m.Hw.mem_name
             (Hw_pp.mem_kind_name m.Hw.kind) m.Hw.readers m.Hw.writers)
         d.Hw.mems)
  in
  [ text check; json check; text lint; json lint; text all; json all; mems ]

let corpus_designs () =
  List.concat_map
    (fun (file, spec) ->
      let path = Filename.concat "../corpus" file in
      let t =
        match
          Target.resolve ~cmd:"golden" ~files_only:true ~tiles:spec path
        with
        | Ok t -> t
        | Error msg -> Alcotest.fail msg
      in
      let r = Tiling.run ~tiles:t.Target.tiles t.Target.prog in
      List.map (fun cfg -> ((file, cfg), Experiments.lower cfg r)) configs)
    corpus

let suite_designs () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg -> ((b.Suite.name, cfg), Experiments.design_of cfg b))
        configs)
    (Suite.extended ())

let table () =
  List.map
    (fun ((name, cfg), d) ->
      ((name, Experiments.config_name cfg), List.map digest (views d)))
    (suite_designs () @ corpus_designs ())

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.split_on_char '\t' line with
        | t :: c :: hs -> go (((t, c), hs) :: acc)
        | _ -> go acc)
  in
  go []

let write_actual rows =
  let oc = open_out actual_file in
  List.iter
    (fun ((t, c), hs) ->
      Printf.fprintf oc "%s\t%s\t%s\n" t c (String.concat "\t" hs))
    rows;
  close_out oc

let test_diagnostics_unchanged () =
  let actual = table () in
  let golden = read_golden () in
  let changed =
    List.concat_map
      (fun (key, hs) ->
        match List.assoc_opt key golden with
        | Some gs when List.length gs = List.length hs ->
            List.filter_map
              (fun (v, (h, g)) ->
                if h = g then None else Some (key, v ^ " changed"))
              (List.combine view_names (List.combine hs gs))
        | Some _ -> [ (key, "malformed row") ]
        | None -> [ (key, "not recorded") ])
      actual
    @ List.filter_map
        (fun (key, _) ->
          if List.mem_assoc key actual then None else Some (key, "missing"))
        golden
  in
  if changed <> [] then write_actual actual;
  List.iter
    (fun ((t, c), why) -> Printf.printf "%s/%s: %s\n" t c why)
    changed;
  Alcotest.(check int) "views with changed bytes" 0
    (List.length changed);
  Alcotest.(check int) "(12 benches + 6 corpus programs) x 3 configs"
    ((12 + 6) * 3) (List.length actual)

let () =
  Alcotest.run "hw_diag_golden"
    [ ( "golden",
        [ Alcotest.test_case "diagnostics and port counts byte-identical"
            `Quick test_diagnostics_unchanged ] ) ]
