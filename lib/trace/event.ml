type access_kind = Read | Write

type lock_side = Exclusive | Shared

type lock_kind =
  | Spinlock
  | Rwlock
  | Mutex
  | Semaphore
  | Rwsem
  | Rcu
  | Seqlock
  | Pseudo

type ctx_kind = Task | Softirq | Hardirq

type t =
  | Alloc of { ptr : int; size : int; data_type : string; subclass : string option }
  | Free of { ptr : int }
  | Lock_acquire of {
      lock_ptr : int;
      kind : lock_kind;
      side : lock_side;
      name : string;
      loc : Srcloc.t;
    }
  | Lock_release of { lock_ptr : int; loc : Srcloc.t }
  | Mem_access of { ptr : int; size : int; kind : access_kind; loc : Srcloc.t }
  | Fun_enter of { fn : string; loc : Srcloc.t }
  | Fun_exit of { fn : string }
  | Ctx_switch of { pid : int; kind : ctx_kind }

let lock_kind_to_string = function
  | Spinlock -> "spinlock"
  | Rwlock -> "rwlock"
  | Mutex -> "mutex"
  | Semaphore -> "semaphore"
  | Rwsem -> "rwsem"
  | Rcu -> "rcu"
  | Seqlock -> "seqlock"
  | Pseudo -> "pseudo"

let lock_kind_of_string = function
  | "spinlock" -> Spinlock
  | "rwlock" -> Rwlock
  | "mutex" -> Mutex
  | "semaphore" -> Semaphore
  | "rwsem" -> Rwsem
  | "rcu" -> Rcu
  | "seqlock" -> Seqlock
  | "pseudo" -> Pseudo
  | s -> failwith ("Event.lock_kind_of_string: " ^ s)

let side_to_string = function Exclusive -> "x" | Shared -> "s"

let side_of_string = function
  | "x" -> Exclusive
  | "s" -> Shared
  | s -> failwith ("Event.side_of_string: " ^ s)

let access_to_string = function Read -> "r" | Write -> "w"

let access_of_string = function
  | "r" -> Read
  | "w" -> Write
  | s -> failwith ("Event.access_of_string: " ^ s)

let ctx_to_string = function
  | Task -> "task"
  | Softirq -> "softirq"
  | Hardirq -> "hardirq"

let ctx_of_string = function
  | "task" -> Task
  | "softirq" -> Softirq
  | "hardirq" -> Hardirq
  | s -> failwith ("Event.ctx_of_string: " ^ s)

(* Free-form name fields are escaped so that tabs/newlines in identifiers
   cannot break line framing; source locations are serialised first and
   then escaped as a whole (the file part may contain anything). The
   line part is digits, which never need escaping, so the location is
   written as the escaped file, a colon and the line. *)
let enc = Fieldenc.encode

let enc_subclass = function
  | None -> "-"
  | Some s ->
      (* A literal "-" subclass must not collide with the None marker. *)
      if s = "-" then "\\-" else enc s

let dec_loc s = Srcloc.of_string (Fieldenc.decode s)

let dec_subclass = function
  | "-" -> None
  | s -> Some (Fieldenc.decode s)

let field b s =
  Buffer.add_char b '\t';
  Buffer.add_string b s

let int_field b i = field b (string_of_int i)

let loc_field b (loc : Srcloc.t) =
  field b (enc loc.file);
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int loc.line)

let add_line b = function
  | Alloc { ptr; size; data_type; subclass } ->
      Buffer.add_char b 'A';
      int_field b ptr;
      int_field b size;
      field b (enc data_type);
      field b (enc_subclass subclass)
  | Free { ptr } ->
      Buffer.add_char b 'F';
      int_field b ptr
  | Lock_acquire { lock_ptr; kind; side; name; loc } ->
      Buffer.add_string b "L+";
      int_field b lock_ptr;
      field b (lock_kind_to_string kind);
      field b (side_to_string side);
      field b (enc name);
      loc_field b loc
  | Lock_release { lock_ptr; loc } ->
      Buffer.add_string b "L-";
      int_field b lock_ptr;
      loc_field b loc
  | Mem_access { ptr; size; kind; loc } ->
      Buffer.add_char b 'M';
      int_field b ptr;
      int_field b size;
      field b (access_to_string kind);
      loc_field b loc
  | Fun_enter { fn; loc } ->
      Buffer.add_char b 'E';
      field b (enc fn);
      loc_field b loc
  | Fun_exit { fn } ->
      Buffer.add_char b 'X';
      field b (enc fn)
  | Ctx_switch { pid; kind } ->
      Buffer.add_char b 'C';
      int_field b pid;
      field b (ctx_to_string kind)

let to_line ev =
  let b = Buffer.create 64 in
  add_line b ev;
  Buffer.contents b

let arity_of_tag = function
  | "A" -> Some 5
  | "F" -> Some 2
  | "L+" -> Some 6
  | "L-" -> Some 3
  | "M" -> Some 5
  | "E" -> Some 3
  | "X" -> Some 2
  | "C" -> Some 3
  | _ -> None

let of_fields fields line =
  match fields with
  | [ "A"; ptr; size; data_type; subclass ] ->
      Alloc
        {
          ptr = int_of_string ptr;
          size = int_of_string size;
          data_type = Fieldenc.decode data_type;
          subclass = dec_subclass subclass;
        }
  | [ "F"; ptr ] -> Free { ptr = int_of_string ptr }
  | [ "L+"; lock_ptr; kind; side; name; loc ] ->
      Lock_acquire
        {
          lock_ptr = int_of_string lock_ptr;
          kind = lock_kind_of_string kind;
          side = side_of_string side;
          name = Fieldenc.decode name;
          loc = dec_loc loc;
        }
  | [ "L-"; lock_ptr; loc ] ->
      Lock_release { lock_ptr = int_of_string lock_ptr; loc = dec_loc loc }
  | [ "M"; ptr; size; kind; loc ] ->
      Mem_access
        {
          ptr = int_of_string ptr;
          size = int_of_string size;
          kind = access_of_string kind;
          loc = dec_loc loc;
        }
  | [ "E"; fn; loc ] -> Fun_enter { fn = Fieldenc.decode fn; loc = dec_loc loc }
  | [ "X"; fn ] -> Fun_exit { fn = Fieldenc.decode fn }
  | [ "C"; pid; kind ] ->
      Ctx_switch { pid = int_of_string pid; kind = ctx_of_string kind }
  | _ -> failwith ("Event.of_line: malformed line: " ^ line)

let of_line line = of_fields (String.split_on_char '\t' line) line

let pp fmt t = Format.pp_print_string fmt (to_line t)

let equal a b = to_line a = to_line b
