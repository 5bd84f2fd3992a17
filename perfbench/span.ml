(* In-memory span recorder for the traced run.  The benchmark wraps each
   call into a layer of the compiler in [with_ name]; when recording is
   off the wrapper is one branch.  Spans are kept in memory and written
   out once, after the timed loop.  The program's own [Trace] stays off:
   it adds IR statistics walks around every pass. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;  (** the op execution this span belongs to *)
  name : string;
  t0 : float;  (** wall-clock seconds *)
  t1 : float;
  minor_words : float;  (** words allocated while the span was open *)
}

let recording = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

(* per-layer counts, summed at the boundary where the work happens *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_op := -1;
  Hashtbl.reset counts

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      stack := List.tl !stack;
      spans :=
        { id; parent; op = !current_op; name; t0; t1; minor_words = w1 -. w0 }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

let op i f =
  current_op := i;
  with_ "op" f

let count name v =
  if !recording then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
let recorded () = List.rev !spans

(* Self time: the span's duration minus the part of it its children
   cover.  Children of one parent run one after another, so their
   durations do not overlap and can be summed. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let write_tsv path spans =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_us\tdur_us\tminor_words\n";
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.0f\n" s.id s.parent s.op
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.minor_words)
    spans;
  close_out oc
