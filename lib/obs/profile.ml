(* Cycle / traffic / area attribution by source-pattern provenance.

   The analytic simulator's annotated tree ({!Simulate.tree}) gives every
   controller subtree a per-invocation result (cycles, DRAM-busy cycles,
   traffic) and the terms its composition used.  This pass distributes
   the design's total cycles down that tree so that every node receives
   the share the composing rules gave it, then aggregates shares by the
   provenance stamped on each node — answering "which source pattern do
   these cycles (and this traffic, and this area) belong to?".

   Distribution reads the stored terms; it re-derives no rule:
   - Seq / Par / sequential Loop: children split the parent's total in
     proportion to their standalone per-invocation cycles;
   - metapipelined Loop: each stage is weighted by its first-iteration
     cycles plus its share of the steady state — the slowest stage when
     the loop is stage-bound, DRAM-busy-proportional shares when the
     shared channel serializes the stages;
   - leaves keep everything they receive.

   A node's [self] is its total minus what its children received, so
   summing [self] over the tree telescopes back to the root total and
   attribution is complete by construction. *)

type traffic = (string * float) list

type node = {
  name : string;
  kind : string;
  prov : Prov.t;
  total : float;  (** cycles attributed to this subtree, all invocations *)
  self : float;  (** total minus what the children received *)
  invocations : float;
  fill : float;  (** share of [total] spent filling pipelines *)
  steady : float;  (** share in steady-state execution *)
  dram : float;  (** share serialized behind the shared DRAM channel *)
  reads : traffic;  (** words read from DRAM, all invocations *)
  writes : traffic;
  area : Area_model.t;  (** this controller instance, without children *)
  children : node list;
}

type origin_row = {
  origin : string;
  o_cycles : float;  (** summed [self] cycles of controllers so stamped *)
  o_share : float;  (** fraction of the design total *)
  o_traffic : float;  (** DRAM words moved by those controllers *)
  o_area : Area_model.t;  (** controllers plus memories so stamped *)
  o_ctrls : int;
}

type t = {
  design_name : string;
  total_cycles : float;
  dram_cycles : float;
  fill_cycles : float;
  steady_cycles : float;
  dram_serial_cycles : float;
  root : node;
  origins : origin_row list;
  unattributed_area : Area_model.t;  (** platform overhead *)
}

(* ------------------------- attribution ----------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* local scheduling transients of one controller, given the factor [f]
   scaling its per-invocation cycles up to its attributed total *)
let local_split f (n : Simulate.node) =
  match n.Simulate.n_terms with
  | Simulate.Pipe_terms { compute; depth } ->
      (f *. depth, f *. Float.max 0.0 (n.Simulate.n_dram -. compute))
  | Simulate.Transfer -> (0.0, f *. n.Simulate.n_cycles)
  | Simulate.Meta { per_iter; slowest; dram_sum; steady } ->
      let slow = (List.nth n.Simulate.n_children slowest).Simulate.n_cycles in
      ( f *. Float.max 0.0 (per_iter -. steady),
        f *. (n.Simulate.n_trips -. 1.0) *. Float.max 0.0 (dram_sum -. slow) )
  | Simulate.Plain -> (0.0, 0.0)

(* weights by which a controller's total is split among its children;
   they sum to the parent's own per-invocation cycles by construction.
   A metapipeline's stage gets its first-iteration cycles plus its share
   of the steady state: all of it to the slowest stage when the loop is
   stage-bound, DRAM-busy-proportional shares when the channel
   serializes the stages. *)
let child_weights (n : Simulate.node) =
  let kids = n.Simulate.n_children in
  match n.Simulate.n_terms with
  | Simulate.Meta { slowest; dram_sum; steady; _ } ->
      let stage_bound =
        (List.nth kids slowest).Simulate.n_cycles >= dram_sum
      in
      List.mapi
        (fun i (k : Simulate.node) ->
          let steady_share =
            if stage_bound then if i = slowest then steady else 0.0
            else if dram_sum > 0.0 then
              steady *. k.Simulate.n_dram /. dram_sum
            else 0.0
          in
          k.Simulate.n_cycles +. ((n.Simulate.n_trips -. 1.0) *. steady_share))
        kids
  | Simulate.Plain | Simulate.Transfer | Simulate.Pipe_terms _ ->
      List.map (fun (k : Simulate.node) -> k.Simulate.n_cycles) kids

let scaled_traffic k t =
  List.map (fun (a, w) -> (a, k *. w)) (Simulate.Smap.bindings t)

let of_design ?machine ?cache (d : Hw.design) ~sizes =
  let fill_acc = ref 0.0 and dram_acc = ref 0.0 in
  let rec build (n : Simulate.node) ~total ~invocations =
    let c = n.Simulate.n_ctrl in
    let f =
      if n.Simulate.n_cycles > 0.0 then total /. n.Simulate.n_cycles else 0.0
    in
    let fill, dram = local_split f n in
    fill_acc := !fill_acc +. fill;
    dram_acc := !dram_acc +. dram;
    let weights = child_weights n in
    let wsum = List.fold_left ( +. ) 0.0 weights in
    let kinv = invocations *. n.Simulate.n_trips in
    let children =
      List.map2
        (fun k w ->
          let share = if wsum > 0.0 then total *. w /. wsum else 0.0 in
          build k ~total:share ~invocations:kinv)
        n.Simulate.n_children weights
    in
    let self = total -. sum (fun n -> n.total) children in
    { name = Hw.ctrl_name c;
      kind = Simulate.kind_of c;
      prov = Hw.ctrl_prov c;
      total;
      self;
      invocations;
      fill;
      steady = Float.max 0.0 (total -. fill -. dram);
      dram;
      reads = scaled_traffic invocations n.Simulate.n_reads;
      writes = scaled_traffic invocations n.Simulate.n_writes;
      area = Area_model.ctrl_cost c;
      children }
  in
  let t = Simulate.tree ?machine ?cache d ~sizes in
  let root = build t ~total:t.Simulate.n_cycles ~invocations:1.0 in
  (* by-origin aggregation *)
  let tbl = Hashtbl.create 16 in
  let rec visit n =
    let origin =
      match Prov.frames n.prov with o :: _ -> o | [] -> "<unattributed>"
    in
    let words =
      (* leaves own the traffic; interior nodes would double-count it *)
      if n.children = [] then
        sum snd n.reads +. sum snd n.writes
      else 0.0
    in
    let prev =
      match Hashtbl.find_opt tbl origin with
      | Some row -> row
      | None ->
          { origin; o_cycles = 0.0; o_share = 0.0; o_traffic = 0.0;
            o_area = Area_model.zero; o_ctrls = 0 }
    in
    Hashtbl.replace tbl origin
      { prev with
        o_cycles = prev.o_cycles +. n.self;
        o_traffic = prev.o_traffic +. words;
        o_area = Area_model.add prev.o_area n.area;
        o_ctrls = prev.o_ctrls + 1 };
    List.iter visit n.children
  in
  visit root;
  (* memories join the rows of the pattern they serve *)
  List.iter
    (fun m ->
      let origin =
        match Prov.frames m.Hw.mem_prov with
        | o :: _ -> o
        | [] -> "<unattributed>"
      in
      let prev =
        match Hashtbl.find_opt tbl origin with
        | Some row -> row
        | None ->
            { origin; o_cycles = 0.0; o_share = 0.0; o_traffic = 0.0;
              o_area = Area_model.zero; o_ctrls = 0 }
      in
      Hashtbl.replace tbl origin
        { prev with o_area = Area_model.add prev.o_area (Area_model.mem_cost m) })
    d.Hw.mems;
  let total = root.total in
  let origins =
    Hashtbl.fold (fun _ row acc -> row :: acc) tbl []
    |> List.map (fun row ->
           { row with
             o_share = (if total > 0.0 then row.o_cycles /. total else 0.0) })
    |> List.sort (fun a b ->
           match compare b.o_cycles a.o_cycles with
           | 0 -> String.compare a.origin b.origin
           | n -> n)
  in
  let fill = Float.min !fill_acc total in
  let dram = Float.min !dram_acc (total -. fill) in
  { design_name = d.Hw.design_name;
    total_cycles = total;
    dram_cycles = t.Simulate.n_dram;
    fill_cycles = fill;
    steady_cycles = Float.max 0.0 (total -. fill -. dram);
    dram_serial_cycles = dram;
    root;
    origins;
    unattributed_area = Area_model.platform_overhead }

let total_cycles t = t.total_cycles

let top_sinks t k =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k (List.filter (fun r -> r.o_cycles > 0.0) t.origins)

let fold_nodes f acc t =
  let rec go acc n = List.fold_left go (f acc n) n.children in
  go acc t.root

(* ------------------------- text backend ---------------------------- *)

let pp_text fmt t =
  Format.fprintf fmt "profile: %s  total %.0f cycles (dram-busy %.0f)@."
    t.design_name t.total_cycles t.dram_cycles;
  Format.fprintf fmt "  fill %.0f  steady %.0f  dram-serialized %.0f@."
    t.fill_cycles t.steady_cycles t.dram_serial_cycles;
  Format.fprintf fmt "@.%-28s %12s %7s %14s %10s %8s@." "source pattern"
    "cycles" "share" "dram words" "area(alm)" "ctrls";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-28s %12.0f %6.1f%% %14.0f %10.0f %8d@." r.origin
        r.o_cycles
        (100.0 *. r.o_share)
        r.o_traffic r.o_area.Area_model.logic r.o_ctrls)
    t.origins;
  Format.fprintf fmt "@.%-44s %12s %12s %10s  %s@." "controller" "total"
    "self" "invocs" "provenance";
  let rec tree depth n =
    Format.fprintf fmt "%s%-*s %12.0f %12.0f %10.0f  %s@."
      (String.make (2 * depth) ' ')
      (Int.max 1 (44 - (2 * depth)))
      n.name n.total n.self n.invocations (Prov.to_string n.prov);
    List.iter (tree (depth + 1)) n.children
  in
  tree 0 t.root

(* ------------------------- json backend ---------------------------- *)

let json_traffic tr = Json.Obj (List.map (fun (a, w) -> (a, Json.Float w)) tr)

let rec json_node n =
  Json.Obj
    [ ("name", String n.name); ("kind", String n.kind);
      ("prov", String (Prov.to_string n.prov)); ("total", Float n.total);
      ("self", Float n.self); ("invocations", Float n.invocations);
      ("fill", Float n.fill); ("steady", Float n.steady);
      ("dram", Float n.dram); ("reads", json_traffic n.reads);
      ("writes", json_traffic n.writes); ("area", Area_model.to_json n.area);
      ("children", List (List.map json_node n.children)) ]

let json_origin r =
  Json.Obj
    [ ("origin", String r.origin); ("cycles", Float r.o_cycles);
      ("share", Float r.o_share); ("traffic_words", Float r.o_traffic);
      ("area", Area_model.to_json r.o_area); ("controllers", Int r.o_ctrls) ]

let to_json t =
  Json.to_string
    (Obj
       [ ("design", String t.design_name);
         ("total_cycles", Float t.total_cycles);
         ("dram_cycles", Float t.dram_cycles);
         ("fill_cycles", Float t.fill_cycles);
         ("steady_cycles", Float t.steady_cycles);
         ("dram_serial_cycles", Float t.dram_serial_cycles);
         ("origins", List (List.map json_origin t.origins));
         ("tree", json_node t.root) ])

(* ---------------------- folded-stack backend ------------------------ *)

(* One line per provenance trail: `frame;frame;... <integer weight>`,
   weight = the trail's self cycles.  Identical trails merge; lines sort
   lexicographically, so output is byte-deterministic for a design. *)
let to_folded t =
  let tbl = Hashtbl.create 64 in
  ignore
    (fold_nodes
       (fun () n ->
         let w = int_of_float (Float.round n.self) in
         if w > 0 then begin
           let key = Prov.folded n.prov in
           let prev =
             match Hashtbl.find_opt tbl key with Some v -> v | None -> 0
           in
           Hashtbl.replace tbl key (prev + w)
         end)
       () t);
  let lines =
    Hashtbl.fold
      (fun k w acc -> Printf.sprintf "%s %d" k w :: acc)
      tbl []
  in
  String.concat "\n"
    (List.sort String.compare lines)
  ^ if lines = [] then "" else "\n"
