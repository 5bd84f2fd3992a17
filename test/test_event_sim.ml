(* Event-level simulation: unit tests on hand-built designs (pipeline
   fill/steady behavior, DRAM gap-filling, double-buffer dependencies) and
   cross-validation against the analytic engine on the whole suite. *)

let check_f msg expected actual =
  if
    Float.abs (expected -. actual)
    > 1e-6 *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %f, got %f" msg expected actual

let pipe ?(trips = [ Hw.Tconst 1000.0 ]) ?(par = 1) ?(depth = 10) ?(dram = [])
    name =
  Hw.Pipe
    { name;
      trips;
      template = Hw.Vector;
      par;
      depth;
      ii = 1;
      ops = { Hw.flops = 1; int_ops = 0; cmp_ops = 0; mem_reads = 1; mem_writes = 1 };
      body = None;
      dram;
      uses = [];
      defines = [];
      prov = Prov.none }

let load ?(words = 800.0) name =
  Hw.Tile_load
    { name; mem = "buf"; array = "x"; words = Hw.Tconst words; path = [];
      reuse = 1; prov = Prov.none }

let design top = { Hw.design_name = "t"; mems = []; top; par_factor = 1 }

let ev d = (Event_sim.run d ~sizes:[]).Event_sim.report.Simulate.cycles

(* -------------------- unit behaviors -------------------- *)

let test_leaf_matches_analytic () =
  let d = design (pipe "p") in
  check_f "leaf pipe" (Simulate.run d ~sizes:[]).Simulate.cycles (ev d)

let test_metapipe_steady_state () =
  (* two equal stages of 1010 cycles, 10 iterations:
     fill 2020 + 9 * 1010 *)
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 10.0 ]; meta = true;
           stages = [ pipe "a"; pipe "b" ]; prov = Prov.none })
  in
  check_f "balanced metapipe" (2020.0 +. (9.0 *. 1010.0)) (ev d)

let test_metapipe_bottleneck () =
  (* unbalanced stages: steady state = slowest stage *)
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 10.0 ]; meta = true;
           stages = [ pipe ~trips:[ Hw.Tconst 100.0 ] "fast"; pipe "slow" ]; prov = Prov.none })
  in
  (* fill = 110 + 1010; steady = 1010 *)
  check_f "bottleneck" (110.0 +. 1010.0 +. (9.0 *. 1010.0)) (ev d)

let test_dram_serialization () =
  (* two concurrent loads of 800 words at 8 w/c + 100 latency: the memory
     interface serializes them *)
  let d =
    design (Hw.Par { name = "p"; children = [ load "l1"; load "l2" ]; prov = Prov.none })
  in
  check_f "serialized loads" 400.0 (ev d)

let test_dram_gap_filling () =
  (* load (memory) in stage 1 overlaps compute in stage 2 across
     iterations: the steady state is the max, not the sum *)
  let d meta =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 20.0 ]; meta;
           stages = [ load ~words:8000.0 "ld"; pipe "compute" ]; prov = Prov.none })
  in
  let seq = ev (d false) and meta = ev (d true) in
  (* load = 100 + 1000 = 1100; pipe = 1010; seq = 20*(2110) *)
  check_f "sequential" (20.0 *. 2110.0) seq;
  check_f "metapipe overlaps load with compute"
    (2110.0 +. (19.0 *. 1100.0))
    meta

let test_double_buffer_dependency () =
  (* stage B of iteration i cannot start before stage A of iteration i:
     with A slow and B fast, B's rate is limited by A *)
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 5.0 ]; meta = true;
           stages =
             [ pipe ~trips:[ Hw.Tconst 5000.0 ] "slowA";
               pipe ~trips:[ Hw.Tconst 10.0 ] "fastB" ]; prov = Prov.none })
  in
  (* A = 5010, B = 20; total = fill (5030) + 4 * 5010 *)
  check_f "producer limits consumer" (5030.0 +. (4.0 *. 5010.0)) (ev d)

let test_event_counts () =
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 7.0 ]; meta = false;
           stages = [ pipe "a"; pipe "b" ]; prov = Prov.none })
  in
  let r = Event_sim.run d ~sizes:[] in
  Alcotest.(check int) "7 iterations x 2 stages" 14 r.Event_sim.events;
  Alcotest.(check int) "no fallbacks" 0 r.Event_sim.fallbacks

let test_fallback_on_huge_loops () =
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 1e9 ]; meta = false;
           stages = [ pipe "a" ]; prov = Prov.none })
  in
  let r = Event_sim.run d ~sizes:[] in
  Alcotest.(check int) "fell back" 1 r.Event_sim.fallbacks;
  (* and the result matches the analytic engine *)
  check_f "fallback cycles" (Simulate.run d ~sizes:[]).Simulate.cycles
    r.Event_sim.report.Simulate.cycles

(* -------------------- DRAM calendar edge cases -------------------- *)

(* The expected cycles and busy calendars below were recorded from the
   engine as it was before the calendar update became windowed (a full
   sort and merge of the calendar on every transfer); the windowed update
   must reproduce them exactly. Loads of [w] words take 100 + w/8 cycles
   on the default machine. *)

let ev_cal d =
  let r = Event_sim.run ~record:true d ~sizes:[] in
  match r.Event_sim.timeline with
  | Some tl -> (r.Event_sim.report.Simulate.cycles, tl.Event_sim.tl_dram_busy)
  | None -> Alcotest.fail "no timeline recorded"

let check_cal msg expected actual =
  let show cal =
    String.concat "; " (List.map (fun (s, e) -> Printf.sprintf "(%g, %g)" s e) cal)
  in
  if expected <> actual then
    Alcotest.failf "%s: expected [%s], got [%s]" msg (show expected) (show actual)

(* a pipe that streams [words] of "y" directly from DRAM: a contiguous
   affine access with 96-word rows takes words / 96 * 20 cycles *)
let dram_pipe ~words name =
  pipe ~trips:[ Hw.Tconst 1.0 ]
    ~dram:
      [ { Hw.da_array = "y"; da_path = [ (Hw.Tconst words, true) ];
          da_contiguous = true; da_affine = true; da_row_words = Hw.Tconst 96.0;
          da_kind = `Read } ]
    name

(* a pipe of [c] compute cycles (depth 10 + c - 10 iterations) *)
let busy c name = pipe ~trips:[ Hw.Tconst (c -. 10.0) ] name

let par children = Hw.Par { name = "p"; children; prov = Prov.none }
let seq children = Hw.Seq { name = "s"; children; prov = Prov.none }

let test_cal_backfill () =
  (* the Seq's load takes DRAM at 1010-1210 first; the later-visited
     direct stream, requested at 0, back-fills the idle gap before it *)
  let d =
    design
      (par [ seq [ busy 1010.0 "c"; load "late" ]; dram_pipe ~words:960.0 "early" ])
  in
  let cycles, cal = ev_cal d in
  check_f "back-fill cycles" 1210.0 cycles;
  check_cal "back-fill calendar" [ (0.0, 200.0); (1010.0, 1210.0) ] cal

let test_cal_exact_fill () =
  (* busy 0-200 and 400-600; a 200-cycle request at 0 fills the gap
     exactly (gap = remaining), merging both neighbours into one span *)
  let d =
    design
      (par
         [ load "l1"; seq [ busy 400.0 "c"; load "l2" ];
           seq [ load "l3"; busy 3000.0 "after" ] ])
  in
  let cycles, cal = ev_cal d in
  check_f "exact fill: l3 ends at 400" 3400.0 cycles;
  check_cal "exact fill calendar" [ (0.0, 600.0) ] cal

let test_cal_several_gaps () =
  (* busy 0-200, 300-500, 600-800, 1000-1200; a 250-cycle request at 0
     takes the gaps 200-300 and 500-600, then 800-850, leaving the
     850-1000 gap and the last span untouched *)
  let at c name = seq [ busy c ("c_" ^ name); load name ] in
  let d =
    design
      (par
         [ load "a"; at 300.0 "b"; at 600.0 "c"; at 1000.0 "d";
           seq [ load ~words:1200.0 "e"; busy 3000.0 "after" ] ])
  in
  let cycles, cal = ev_cal d in
  check_f "several gaps: e ends at 850" 3850.0 cycles;
  check_cal "several gaps calendar" [ (0.0, 850.0); (1000.0, 1200.0) ] cal

let test_cal_clamps_negative_time () =
  (* no design requests DRAM before cycle 0, so the clamp is checked on
     the calendar itself: a request at t < 0 starts at 0 *)
  let cal = Event_sim.Calendar.create () in
  check_f "request at -50" 100.0 (Event_sim.Calendar.transfer cal (-50.0) 100.0);
  check_cal "clamped span" [ (0.0, 100.0) ] (Event_sim.Calendar.spans cal);
  check_f "second request at -1 queues after" 150.0
    (Event_sim.Calendar.transfer cal (-1.0) 50.0);
  check_cal "merged span" [ (0.0, 150.0) ] (Event_sim.Calendar.spans cal)

(* [n] iterations of (100 compute cycles, then a 101-cycle load) leave
   [n] disjoint busy spans (201k - 101, 201k); a late load of 200 cycles
   is then requested at 0 and followed by 1e6 compute cycles *)
let coalescing_design n =
  design
    (par
       [ Hw.Loop
           { name = "l"; trips = [ Hw.Tconst n ]; meta = false;
             stages = [ busy 100.0 "c"; load ~words:8.0 "small" ];
             prov = Prov.none };
         seq [ load "late"; busy 1e6 "after" ] ])

let test_cal_coalesces () =
  (* 2048 spans are kept: the late load fills 0-100 and 201-301, merging
     the first two spans *)
  let cycles, cal = ev_cal (coalescing_design 2048.0) in
  check_f "2048 spans: late load ends at 301" 1000301.0 cycles;
  Alcotest.(check int) "2048 spans: none coalesced" 2047 (List.length cal);
  (* past 2048 the oldest half is coalesced into one span (100-205824),
     so the late load finds only the gap before it and must queue after
     the block: it ends at 205924 (the approximation is pessimistic) *)
  let cycles, _ = ev_cal (coalescing_design 2049.0) in
  check_f "2049 spans: late load ends at 205924" 1205924.0 cycles;
  let cycles, cal = ev_cal (coalescing_design 3000.0) in
  check_f "3000 spans: late load ends at 205924" 1205924.0 cycles;
  (* 2049 spans coalesce to 1026, 951 more follow; the late load fills
     0-100 and the 100-cycle gap after the block, merging across both *)
  Alcotest.(check int) "3000 spans: calendar spans" 1976 (List.length cal);
  check_cal "3000 spans: coalesced head"
    [ (0.0, 206025.0); (206125.0, 206226.0) ]
    (List.filteri (fun i _ -> i < 2) cal)

(* -------------------- suite cross-validation -------------------- *)

let test_cross_validation () =
  List.iter
    (fun bench ->
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg bench in
          let sizes = bench.Suite.sim_sizes in
          let a = (Simulate.run d ~sizes).Simulate.cycles in
          let e = Event_sim.run d ~sizes in
          let ev_c = e.Event_sim.report.Simulate.cycles in
          let ratio = ev_c /. a in
          if ratio < 0.98 || ratio > 1.02 then
            Alcotest.failf "%s/%s: analytic %.0f vs event %.0f (ratio %.3f)"
              bench.Suite.name (Experiments.config_name cfg) a ev_c ratio;
          (* traffic must agree exactly *)
          let at = Simulate.total_read (Simulate.run d ~sizes) in
          let et = Simulate.total_read e.Event_sim.report in
          if Float.abs (at -. et) > 1.0 then
            Alcotest.failf "%s/%s: traffic %.0f vs %.0f" bench.Suite.name
              (Experiments.config_name cfg) at et)
        [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ])
    (Suite.all ())

let () =
  Alcotest.run "event_sim"
    [ ( "unit",
        [ Alcotest.test_case "leaf = analytic" `Quick test_leaf_matches_analytic;
          Alcotest.test_case "metapipe steady state" `Quick
            test_metapipe_steady_state;
          Alcotest.test_case "metapipe bottleneck" `Quick
            test_metapipe_bottleneck;
          Alcotest.test_case "dram serialization" `Quick test_dram_serialization;
          Alcotest.test_case "dram gap filling" `Quick test_dram_gap_filling;
          Alcotest.test_case "double-buffer dependency" `Quick
            test_double_buffer_dependency;
          Alcotest.test_case "event counts" `Quick test_event_counts;
          Alcotest.test_case "fallback" `Quick test_fallback_on_huge_loops ] );
      ( "calendar",
        [ Alcotest.test_case "back-fill before busy spans" `Quick
            test_cal_backfill;
          Alcotest.test_case "exact fill merges neighbours" `Quick
            test_cal_exact_fill;
          Alcotest.test_case "request spans several gaps" `Quick
            test_cal_several_gaps;
          Alcotest.test_case "t < 0 is clamped" `Quick
            test_cal_clamps_negative_time;
          Alcotest.test_case "past 2048 spans coalesces" `Quick
            test_cal_coalesces ] );
      ( "cross-validation",
        [ Alcotest.test_case "suite x configs within 2%" `Quick
            test_cross_validation ] ) ]
