(* Golden view gate: every printed view of the analytic simulator and the
   attribution profiler, for every benchmark of [Suite.extended] under all
   three hardware configurations, must keep the exact bytes recorded in
   [views_golden.tsv].  The table stores one MD5 digest per (bench,
   config, view); a mismatch names each changed triple.

   When a view change is intended, the test writes the full table it
   computed to [views_golden.actual] in its build directory
   (_build/default/test); review the change and copy that file over
   test/views_golden.tsv. *)

let configs =
  [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let golden_file = "views_golden.tsv"
let actual_file = "views_golden.actual"
let digest s = Digest.to_hex (Digest.string s)
let str pp x = Format.asprintf "%a" pp x

let views (bench : Suite.bench) cfg =
  let d = Experiments.design_of cfg bench in
  let sizes = bench.Suite.sim_sizes in
  let p = Profile.of_design d ~sizes in
  [ ("report", str Simulate.pp_report (Simulate.run d ~sizes));
    ("breakdown", str Simulate.pp_breakdown (Simulate.breakdown d ~sizes));
    ( "bottlenecks",
      str Simulate.pp_bottlenecks (Simulate.bottlenecks d ~sizes) );
    ("profile.text", str Profile.pp_text p);
    ("profile.json", Profile.to_json p);
    ("profile.folded", Profile.to_folded p) ]

let table () =
  List.concat_map
    (fun (bench : Suite.bench) ->
      List.concat_map
        (fun cfg ->
          List.map
            (fun (view, s) ->
              ( (bench.Suite.name, Experiments.config_name cfg, view),
                digest s ))
            (views bench cfg))
        configs)
    (Suite.extended ())

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.split_on_char '\t' line with
        | [ b; c; v; h ] -> go (((b, c, v), h) :: acc)
        | _ -> go acc)
  in
  go []

let write_actual rows =
  let oc = open_out actual_file in
  List.iter
    (fun ((b, c, v), h) -> Printf.fprintf oc "%s\t%s\t%s\t%s\n" b c v h)
    rows;
  close_out oc

let test_views_unchanged () =
  let actual = table () in
  let golden = read_golden () in
  let changed =
    List.filter_map
      (fun (key, h) ->
        match List.assoc_opt key golden with
        | Some g when g = h -> None
        | Some _ -> Some (key, "changed")
        | None -> Some (key, "not recorded"))
      actual
    @ List.filter_map
        (fun (key, _) ->
          if List.mem_assoc key actual then None else Some (key, "missing"))
        golden
  in
  if changed <> [] then write_actual actual;
  List.iter
    (fun ((b, c, v), why) -> Printf.printf "%s/%s %s: %s\n" b c v why)
    changed;
  Alcotest.(check int) "views with changed bytes" 0 (List.length changed);
  Alcotest.(check int) "36 designs x 6 views" (36 * 6) (List.length actual)

let () =
  Alcotest.run "views_golden"
    [ ( "golden",
        [ Alcotest.test_case "simulate and profile views byte-identical"
            `Quick test_views_unchanged ] ) ]
