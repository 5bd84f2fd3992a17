(* Golden event-engine gate: the event engine's result and its recorded
   timeline, for every benchmark of [Suite.extended] under all three
   hardware configurations at simulation sizes plus a few tiled points,
   must keep the exact bits recorded in [event_golden.tsv].  The table
   stores one MD5 digest per (case, view); a mismatch names each changed
   pair.

   The extra points reach the engine's corners: [outerprod] at tiles
   m=16,n=32 and par 4 exceeds the event budget (analytic fallback);
   [conv2d] at tiles h=16,w=16 and par 4, and [+tiling] [kmeans]/[gemm] at
   twice the simulation sizes, push the DRAM calendar past 2048 spans
   (coalescing); [gemm] at tiles m=64,n=32,p=64 schedules 25k events
   over a long calendar.

   Floats are printed with [%h], so any change of a single bit shows.
   When a change is intended, the test writes the full table it computed
   to [event_golden.actual] in its build directory (_build/default/test);
   review the change and copy that file over test/event_golden.tsv. *)

let golden_file = "event_golden.tsv"
let actual_file = "event_golden.actual"
let digest s = Digest.to_hex (Digest.string s)

let result_text (r : Event_sim.result) =
  let b = Buffer.create 256 in
  let rep = r.Event_sim.report in
  Printf.bprintf b "cycles %h\ndram %h\n" rep.Simulate.cycles
    rep.Simulate.dram_cycles;
  List.iter (fun (a, w) -> Printf.bprintf b "read %s %h\n" a w) rep.Simulate.reads;
  List.iter
    (fun (a, w) -> Printf.bprintf b "write %s %h\n" a w)
    rep.Simulate.writes;
  Printf.bprintf b "events %d\nfallbacks %d\n" r.Event_sim.events
    r.Event_sim.fallbacks;
  Buffer.contents b

let timeline_text (r : Event_sim.result) =
  let b = Buffer.create 4096 in
  (match r.Event_sim.timeline with
  | None -> Buffer.add_string b "no timeline\n"
  | Some tl ->
      List.iter
        (fun (sp : Event_sim.span) ->
          Printf.bprintf b "%s\t%s\t%h\t%h" sp.Event_sim.sp_track
            sp.Event_sim.sp_name sp.Event_sim.sp_start sp.Event_sim.sp_finish;
          List.iter (fun (k, v) -> Printf.bprintf b "\t%s=%h" k v)
            sp.Event_sim.sp_args;
          Buffer.add_char b '\n')
        tl.Event_sim.tl_spans;
      List.iter
        (fun (s, e) -> Printf.bprintf b "dram\t%h\t%h\n" s e)
        tl.Event_sim.tl_dram_busy;
      Printf.bprintf b "makespan %h\n" tl.Event_sim.tl_makespan);
  Buffer.contents b

let views d ~sizes =
  [ ("result", result_text (Event_sim.run d ~sizes));
    ("timeline", timeline_text (Event_sim.run ~record:true d ~sizes)) ]

let configs =
  [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let bench name = Suite.find (Suite.extended ()) name
let scaled k sizes = List.map (fun (s, v) -> (s, v * k)) sizes

(* [bench] lowered with its default tiles overridden by base name *)
let tiled_point (b : Suite.bench) ~tiles ~par =
  let tiles =
    List.map
      (fun (s, t) -> (s, Option.value ~default:t (List.assoc_opt (Sym.base s) tiles)))
      b.Suite.tiles
  in
  let r = Tiling.run ~tiles b.Suite.prog in
  Lower.program { Lower.default_opts with Lower.par } r.Tiling.tiled

let cases () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg ->
          ( b.Suite.name ^ "/" ^ Experiments.config_name cfg,
            fun () -> (Experiments.design_of cfg b, b.Suite.sim_sizes) ))
        configs)
    (Suite.extended ())
  @ [ ( "outerprod/tiles m=16,n=32 par=4 (fallback)",
        fun () ->
          let b = bench "outerprod" in
          (tiled_point b ~tiles:[ ("m", 16); ("n", 32) ] ~par:4, b.Suite.sim_sizes)
      );
      ( "conv2d/tiles h=16,w=16 par=4 (coalesces)",
        fun () ->
          let b = bench "conv2d" in
          (tiled_point b ~tiles:[ ("h", 16); ("w", 16) ] ~par:4, b.Suite.sim_sizes)
      );
      ( "kmeans/+tiling x2 sizes (coalesces)",
        fun () ->
          let b = bench "kmeans" in
          (Experiments.design_of Experiments.Tiled b, scaled 2 b.Suite.sim_sizes)
      );
      ( "gemm/+tiling x2 sizes (coalesces)",
        fun () ->
          let b = bench "gemm" in
          (Experiments.design_of Experiments.Tiled b, scaled 2 b.Suite.sim_sizes)
      );
      ( "gemm/tiles m=64,n=32,p=64 par=16",
        fun () ->
          let b = bench "gemm" in
          ( tiled_point b ~tiles:[ ("m", 64); ("n", 32); ("p", 64) ] ~par:16,
            b.Suite.sim_sizes ) ) ]

let table () =
  List.concat_map
    (fun (case, design) ->
      let d, sizes = design () in
      List.map (fun (view, s) -> ((case, view), digest s)) (views d ~sizes))
    (cases ())

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.split_on_char '\t' line with
        | [ c; v; h ] -> go (((c, v), h) :: acc)
        | _ -> go acc)
  in
  go []

let write_actual rows =
  let oc = open_out actual_file in
  List.iter (fun ((c, v), h) -> Printf.fprintf oc "%s\t%s\t%s\n" c v h) rows;
  close_out oc

let test_event_unchanged () =
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
  List.iter (fun ((c, v), why) -> Printf.printf "%s %s: %s\n" c v why) changed;
  Alcotest.(check int) "event views with changed bits" 0 (List.length changed);
  Alcotest.(check int) "(36 designs + 5 points) x 2 views" ((36 + 5) * 2)
    (List.length actual)

let () =
  Alcotest.run "event_golden"
    [ ( "golden",
        [ Alcotest.test_case "event results and timelines bit-identical"
            `Quick test_event_unchanged ] ) ]
