(* The fast streaming reader ([Trace.read]) against the validating
   per-line reader ([Trace.read_lines]) on the same file. The reference
   splits the file with [input_line], as the reader's contract says, so
   a corruption that flips a byte into a newline splits the line the
   same way for both. *)

module Trace = Lockdoc_trace.Trace
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Diag = Lockdoc_trace.Diag

let file_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let with_file contents f =
  let path = Filename.temp_file "lockdoc_reader" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let diag_view d =
  Printf.sprintf "%s|%s|%s|%s"
    (Diag.kind_to_string d.Diag.d_kind)
    (Option.value ~default:"-" d.Diag.d_file)
    (match d.Diag.d_line with Some l -> string_of_int l | None -> "-")
    d.Diag.d_message

(* [Ok (layouts, events, diags)] or [Error diag], for comparison. *)
let outcome f =
  match f () with
  | t, diags ->
      Ok
        ( List.map Layout.to_string t.Trace.layouts,
          t.Trace.events,
          List.map diag_view diags )
  | exception Trace.Invalid d -> Error (diag_view d)

(* Empty when the two readers agree on [path] in [mode]; otherwise a
   description of the first difference. *)
let compare_file mode path =
  let reference =
    outcome (fun () -> Trace.read_lines ~mode ~file:path (file_lines path))
  in
  let fast = outcome (fun () -> Trace.read ~mode path) in
  match (reference, fast) with
  | Error a, Error b -> if a = b then "" else Printf.sprintf "raised %s vs %s" a b
  | Ok _, Error b -> "only the fast reader raised " ^ b
  | Error a, Ok _ -> "only the validating reader raised " ^ a
  | Ok (la, ea, da), Ok (lb, eb, db) ->
      if la <> lb then "layouts differ"
      else if da <> db then
        Printf.sprintf "diags differ: [%s] vs [%s]" (String.concat "; " da)
          (String.concat "; " db)
      else if Array.length ea <> Array.length eb then
        Printf.sprintf "%d vs %d events" (Array.length ea) (Array.length eb)
      else begin
        let diff = ref "" in
        Array.iteri
          (fun i a ->
            if !diff = "" && not (Event.equal a eb.(i)) then
              diff :=
                Printf.sprintf "event %d: %S vs %S" i (Event.to_line a)
                  (Event.to_line eb.(i)))
          ea;
        !diff
      end

(* Both modes. *)
let compare_contents contents =
  with_file contents (fun path ->
      List.filter_map
        (fun mode ->
          match compare_file mode path with
          | "" -> None
          | d ->
              Some
                (Printf.sprintf "%s: %s"
                   (match mode with
                   | Trace.Strict -> "strict"
                   | Trace.Lenient -> "lenient")
                   d))
        [ Trace.Strict; Trace.Lenient ])

let lines_contents lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
