(* A naive reference importer: the import semantics written the
   obvious way, with no tables, caches or windows. Live and freed
   regions are association lists searched for the nearest base at or
   below an address, members are found with [Layout.member_at], filters
   with [Filter.fn_blacklisted] / [Filter.member_blacklisted] on every
   access, the freed list is filtered in full on every allocation, and
   every kept access interns its stack. Lenient mode only: it counts
   anomalies and never raises.

   [run] returns the op log the rows were created with and the stats,
   for comparison with [Import]. *)

module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Filter = Lockdoc_db.Filter
module Import = Lockdoc_db.Import
module Op = Lockdoc_db.Op

type ctx = {
  pid : int;
  mutable frames : string list; (* innermost first *)
  mutable held : (Schema.held * int) list; (* oldest first, with opened txn *)
  mutable base_txn : int option;
}

(* The binding with the greatest key <= [ptr]. *)
let nearest_below ptr assoc =
  List.fold_left
    (fun best (base, v) ->
      if base > ptr then best
      else
        match best with
        | Some (b, _) when b >= base -> best
        | _ -> Some (base, v))
    None assoc

let run ?(filter = Filter.default) ?(irq_mode = Import.Inherit) layouts events
    =
  let ops = ref [] in
  let store = Store.create () in
  Store.set_logger store (Some (fun op -> ops := op :: !ops));
  let dt_ids =
    List.map
      (fun l ->
        let dt = Store.add_data_type store l in
        (dt.Schema.dt_name, dt.Schema.dt_id))
      layouts
  in
  (* Later declarations of a name win, as in a Hashtbl.replace. *)
  let dt_id name = List.assoc_opt name (List.rev dt_ids) in
  let live = ref [] and freed = ref [] in
  let live_locks = ref [] and locks_of_alloc = ref [] in
  let flow_kinds = ref [] in
  let root = { pid = 0; frames = []; held = []; base_txn = None } in
  let ctxs = ref [ (0, root) ] in
  let cur = ref root in
  let n = Array.make 19 0 in
  let bump i = n.(i) <- n.(i) + 1 in
  let lock_ops = 0 and mem = 1 and kept = 2 and f_fn = 3 and f_member = 4 in
  let f_kind = 5 and unresolved = 6 and unbalanced = 7 and allocs = 8 in
  let frees = 9 and l_static = 10 and l_embedded = 11 and unknown_ty = 12 in
  let double_free = 13 and free_noalloc = 14 and after_free = 15 in
  let acq_freed = 16 and flow = 17 and unclosed = 18 in
  let in_freed ptr =
    match nearest_below ptr !freed with
    | Some (base, size) -> ptr < base + size
    | None -> false
  in
  let find_alloc ptr =
    match nearest_below ptr !live with
    | Some (base, al_id) ->
        let al = Store.allocation store al_id in
        if ptr < base + al.Schema.al_size then Some al else None
    | None -> None
  in
  let member al ptr =
    let dt = Store.data_type store al.Schema.al_type in
    Layout.member_at dt.Schema.dt_layout (ptr - al.Schema.al_ptr)
  in
  let add_txn ctx held =
    (Store.add_txn store ~locks:(List.map fst held) ~ctx:ctx.pid).Schema.tx_id
  in
  let feed idx = function
    | Event.Ctx_switch { pid; kind } -> (
        (match List.assoc_opt pid !flow_kinds with
        | Some k when k <> kind -> bump flow
        | Some _ -> ()
        | None -> flow_kinds := (pid, kind) :: !flow_kinds);
        match kind with
        | Event.Task -> (
            match List.assoc_opt pid !ctxs with
            | Some st -> cur := st
            | None ->
                let st = { pid; frames = []; held = []; base_txn = None } in
                ctxs := (pid, st) :: !ctxs;
                cur := st)
        | Event.Softirq | Event.Hardirq ->
            cur :=
              (match irq_mode with
              | Import.Separate -> { pid; frames = []; held = []; base_txn = None }
              | Import.Inherit ->
                  { pid; frames = []; held = !cur.held; base_txn = !cur.base_txn }))
    | Event.Alloc { ptr; size; data_type; subclass } -> (
        bump allocs;
        match dt_id data_type with
        | None -> bump unknown_ty
        | Some ty ->
            let al = Store.add_allocation store ~ptr ~size ~ty ~subclass ~start:idx in
            freed :=
              List.filter
                (fun (base, fsize) -> base + fsize <= ptr || ptr + size <= base)
                !freed;
            live := (ptr, al.Schema.al_id) :: List.remove_assoc ptr !live)
    | Event.Free { ptr } -> (
        bump frees;
        match List.assoc_opt ptr !live with
        | None -> if in_freed ptr then bump double_free else bump free_noalloc
        | Some al_id ->
            let al = Store.allocation store al_id in
            Store.set_alloc_end store al_id (Some idx);
            freed := (ptr, al.Schema.al_size) :: List.remove_assoc ptr !freed;
            live := List.remove_assoc ptr !live;
            let ptrs = Option.value ~default:[] (List.assoc_opt al_id !locks_of_alloc) in
            live_locks := List.filter (fun (p, _) -> not (List.mem p ptrs)) !live_locks;
            locks_of_alloc := List.remove_assoc al_id !locks_of_alloc)
    | Event.Lock_acquire { lock_ptr; kind; side; name; loc } ->
        bump lock_ops;
        let lk_id =
          match List.assoc_opt lock_ptr !live_locks with
          | Some id -> id
          | None ->
              let parent =
                match find_alloc lock_ptr with
                | None -> None
                | Some al ->
                    Option.map
                      (fun m -> (al.Schema.al_id, m.Layout.m_name))
                      (member al lock_ptr)
              in
              (match parent with
              | None ->
                  if in_freed lock_ptr then bump acq_freed;
                  bump l_static
              | Some (al_id, _) ->
                  bump l_embedded;
                  let prev =
                    Option.value ~default:[] (List.assoc_opt al_id !locks_of_alloc)
                  in
                  locks_of_alloc :=
                    (al_id, lock_ptr :: prev) :: List.remove_assoc al_id !locks_of_alloc);
              let lk = Store.add_lock store ~ptr:lock_ptr ~kind ~name ~parent in
              live_locks :=
                (lock_ptr, lk.Schema.lk_id) :: List.remove_assoc lock_ptr !live_locks;
              lk.Schema.lk_id
        in
        let ctx = !cur in
        let entry = { Schema.h_lock = lk_id; h_side = side; h_loc = loc } in
        let held = ctx.held @ [ (entry, 0) ] in
        ctx.held <- ctx.held @ [ (entry, add_txn ctx held) ]
    | Event.Lock_release { lock_ptr; _ } -> (
        bump lock_ops;
        let ctx = !cur in
        match List.assoc_opt lock_ptr !live_locks with
        | None -> bump unbalanced
        | Some lk_id -> (
            let is_it (h, _) = h.Schema.h_lock = lk_id in
            (* The most recent occurrence. *)
            let rec split seen = function
              | [] -> None
              | x :: rest when is_it x && not (List.exists is_it rest) ->
                  Some (List.rev seen, rest)
              | x :: rest -> split (x :: seen) rest
            in
            match split [] ctx.held with
            | None -> bump unbalanced
            | Some (prefix, tail) ->
                ctx.held <-
                  List.fold_left
                    (fun acc (h, _) ->
                      let held = acc @ [ (h, 0) ] in
                      acc @ [ (h, add_txn ctx held) ])
                    prefix tail))
    | Event.Fun_enter { fn; _ } -> !cur.frames <- fn :: !cur.frames
    | Event.Fun_exit { fn } ->
        let rec pop = function
          | [] -> []
          | f :: rest -> if f = fn then rest else pop rest
        in
        !cur.frames <- pop !cur.frames
    | Event.Mem_access { ptr; kind; loc; _ } -> (
        bump mem;
        match find_alloc ptr with
        | None ->
            bump unresolved;
            if in_freed ptr then bump after_free
        | Some al -> (
            match member al ptr with
            | None -> bump unresolved
            | Some m ->
                let ctx = !cur in
                let ty = (Store.data_type store al.Schema.al_type).Schema.dt_name in
                if
                  (filter.Filter.drop_lock_members && m.Layout.m_kind = Layout.Lock)
                  || (filter.Filter.drop_atomic_members
                     && m.Layout.m_kind = Layout.Atomic)
                then bump f_kind
                else if Filter.member_blacklisted filter ~ty ~member:m.Layout.m_name
                then bump f_member
                else if Filter.fn_blacklisted filter ctx.frames then bump f_fn
                else begin
                  bump kept;
                  let txn =
                    match List.rev ctx.held with
                    | (_, tx) :: _ -> Some tx
                    | [] -> ctx.base_txn
                  in
                  let stack = Store.intern_stack store ctx.frames in
                  ignore
                    (Store.add_access store ~event:idx ~alloc:al.Schema.al_id
                       ~member:m.Layout.m_name ~kind ~txn ~loc ~stack ~ctx:ctx.pid)
                end))
  in
  List.iteri feed events;
  List.iter
    (fun (_, st) -> List.iter (fun _ -> bump unclosed) st.held)
    !ctxs;
  Store.set_logger store None;
  let stats =
    {
      Import.total_events = List.length events;
      lock_ops = n.(lock_ops);
      mem_accesses = n.(mem);
      accesses_kept = n.(kept);
      filtered_fn = n.(f_fn);
      filtered_member = n.(f_member);
      filtered_kind = n.(f_kind);
      unresolved = n.(unresolved);
      unbalanced_releases = n.(unbalanced);
      allocations = n.(allocs);
      frees = n.(frees);
      locks_static = n.(l_static);
      locks_embedded = n.(l_embedded);
      txns = Store.n_txns store;
      anomalies =
        {
          Import.an_unknown_data_type = n.(unknown_ty);
          an_double_free = n.(double_free);
          an_free_without_alloc = n.(free_noalloc);
          an_access_after_free = n.(after_free);
          an_acquire_on_freed = n.(acq_freed);
          an_flow_conflict = n.(flow);
          an_unclosed_txns = n.(unclosed);
        };
    }
  in
  (store, List.rev !ops, stats)

(* The engine on the same input, lenient, with its op log. *)
let engine ?filter ?irq_mode layouts events =
  let ops = ref [] in
  let g =
    Import.engine ?filter ?irq_mode ~mode:Import.Lenient
      ~log:(fun op -> ops := op :: !ops)
      layouts
  in
  List.iter (Import.feed g) events;
  let stats = Import.finalize g in
  let store = Import.engine_store g in
  Store.set_logger store None;
  (store, List.rev !ops, stats)

(* Empty when the engine and the reference agree on rows (op for op),
   stats, and the type-key index; else the first difference. *)
let diff ?filter ?irq_mode layouts events =
  let s1, ops1, st1 = run ?filter ?irq_mode layouts events in
  let s2, ops2, st2 = engine ?filter ?irq_mode layouts events in
  let lines = List.map Op.to_line in
  let rec first_diff i a b =
    match (a, b) with
    | [], [] -> ""
    | x :: _, [] -> Printf.sprintf "op %d only in the reference: %S" i x
    | [], y :: _ -> Printf.sprintf "op %d only in the engine: %S" i y
    | x :: a, y :: b ->
        if x = y then first_diff (i + 1) a b
        else Printf.sprintf "op %d: reference %S, engine %S" i x y
  in
  let keys s =
    List.map
      (fun k ->
        (k, List.map (fun a -> a.Schema.ac_id) (Store.accesses_of_type s k)))
      (Store.type_keys s)
  in
  match first_diff 0 (lines ops1) (lines ops2) with
  | "" ->
      if st1 <> st2 then "stats differ"
      else if keys s1 <> keys s2 then "type-key index differs"
      else ""
  | d -> d
