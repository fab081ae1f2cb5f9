(* Tests for the relational trace store and the import pipeline: address
   resolution, transaction reconstruction (including nested and
   out-of-order releases), filtering, and IRQ handling modes. *)

module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Filter = Lockdoc_db.Filter
module Import = Lockdoc_db.Import

let check = Alcotest.check

let loc = Srcloc.make "test.c" 1

(* A small monitored type: two data members, one embedded lock, one
   atomic member. *)
let widget =
  Layout.make ~name:"widget"
    [
      ("w_a", 8, Layout.Data);
      ("w_lock", 4, Layout.Lock);
      ("w_b", 8, Layout.Data);
      ("w_cnt", 4, Layout.Atomic);
    ]

let mk_trace events =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) events;
  Trace.finish ~layouts:[ widget ] sink

let base = 0x100000

let alloc ?subclass ptr =
  Event.Alloc { ptr; size = widget.Layout.ty_size; data_type = "widget"; subclass }

let acquire ?(kind = Event.Spinlock) ?(name = "L") lock_ptr =
  Event.Lock_acquire { lock_ptr; kind; side = Event.Exclusive; name; loc }

let release lock_ptr = Event.Lock_release { lock_ptr; loc }

let read ptr = Event.Mem_access { ptr; size = 8; kind = Event.Read; loc }
let write ptr = Event.Mem_access { ptr; size = 8; kind = Event.Write; loc }

let import ?filter ?irq_mode events = Import.run ?filter ?irq_mode (mk_trace events)

(* {2 Address resolution} *)

let test_resolution () =
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read base (* w_a at offset 0 *);
        write (base + 12) (* w_b at offset 12 *);
        read (base + 4) (* interior byte of w_a? no: w_a is 0..7; 4 is interior of w_a *);
      ]
  in
  check Alcotest.int "kept all" 3 stats.Import.accesses_kept;
  check Alcotest.int "no unresolved" 0 stats.Import.unresolved;
  let members =
    List.init (Store.n_accesses store) (fun i -> (Store.access store i).Schema.ac_member)
  in
  check (Alcotest.list Alcotest.string) "members" [ "w_a"; "w_b"; "w_a" ] members

let test_unresolved_access () =
  let _, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read 0x999999 (* outside any allocation *);
      ]
  in
  check Alcotest.int "unresolved" 1 stats.Import.unresolved;
  check Alcotest.int "kept" 0 stats.Import.accesses_kept

let test_subclass_keys () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"ext4" base;
        read base;
        alloc (base + 0x100);
        read (base + 0x100);
      ]
  in
  check (Alcotest.list Alcotest.string) "type keys" [ "widget"; "widget:ext4" ]
    (Store.type_keys store)

let test_address_reuse () =
  (* Freeing and reallocating the same address must attribute accesses to
     the right allocation generation. *)
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read base;
        Event.Free { ptr = base };
        alloc ~subclass:"gen2" base;
        read base;
      ]
  in
  check Alcotest.int "two allocations" 2 (Store.n_allocations store);
  check Alcotest.int "kept" 2 stats.Import.accesses_kept;
  let a0 = Store.access store 0 and a1 = Store.access store 1 in
  check Alcotest.bool "different allocations" true
    (a0.Schema.ac_alloc <> a1.Schema.ac_alloc);
  check (Alcotest.option Alcotest.int) "first freed" (Some 3)
    (Store.allocation store a0.Schema.ac_alloc).Schema.al_end

(* {2 Transaction reconstruction} *)

let lock1 = 0x10
let lock2 = 0x20

let txn_locks store id =
  (Store.txn store id).Schema.tx_locks
  |> List.map (fun h -> (Store.lock store h.Schema.h_lock).Schema.lk_name)

let access_txn store i = (Store.access store i).Schema.ac_txn

let test_nested_txn_resumes () =
  (* Accesses after the inner release must resume the outer transaction
     (paper Sec. 4.2). *)
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"outer" lock1;
        read base (* txn A *);
        acquire ~name:"inner" lock2;
        read base (* txn B *);
        release lock2;
        read base (* back to txn A *);
        release lock1;
        read base (* no txn *);
      ]
  in
  let t0 = access_txn store 0 and t1 = access_txn store 1 in
  let t2 = access_txn store 2 and t3 = access_txn store 3 in
  check Alcotest.bool "A and B differ" true (t0 <> t1);
  check Alcotest.bool "outer resumed" true (t0 = t2);
  check (Alcotest.option Alcotest.int) "outside any txn" None t3;
  (match t1 with
  | Some b ->
      check (Alcotest.list Alcotest.string) "inner txn locks"
        [ "outer"; "inner" ] (txn_locks store b)
  | None -> Alcotest.fail "inner access had no transaction")

let test_out_of_order_release () =
  (* Hand-over-hand: release the first lock while the second is held. *)
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"a" lock1;
        acquire ~name:"b" lock2;
        release lock1;
        read base (* held: [b] *);
        release lock2;
      ]
  in
  check Alcotest.int "no unbalanced" 0 stats.Import.unbalanced_releases;
  match access_txn store 0 with
  | Some t ->
      check (Alcotest.list Alcotest.string) "only b remains" [ "b" ]
        (txn_locks store t)
  | None -> Alcotest.fail "access lost its transaction"

let test_unbalanced_release () =
  let _, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"a" lock1;
        release lock1;
        release lock1;
      ]
  in
  check Alcotest.int "unbalanced counted" 1 stats.Import.unbalanced_releases

let test_per_context_lock_state () =
  (* Two tasks interleave; their held sets must not leak into each other. *)
  let store, _ =
    import ~filter:Filter.empty
      [
        alloc base;
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"a" lock1;
        Event.Ctx_switch { pid = 2; kind = Event.Task };
        read base (* task 2 holds nothing *);
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        read base (* task 1 holds a *);
        release lock1;
      ]
  in
  check (Alcotest.option Alcotest.int) "task 2 lock-free" None (access_txn store 0);
  check Alcotest.bool "task 1 in txn" true (access_txn store 1 <> None)

let test_embedded_lock_parent () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"w_lock" (base + 8) (* embedded at offset 8 *);
        write base;
        release (base + 8);
      ]
  in
  let lk = Store.lock store 0 in
  (match lk.Schema.lk_parent with
  | Some (al, member) ->
      check Alcotest.int "parent allocation" 0 al;
      check Alcotest.string "parent member" "w_lock" member
  | None -> Alcotest.fail "lock not recognised as embedded");
  let _, stats2 =
    import ~filter:Filter.empty
      [ Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"global" 0x4000; release 0x4000 ]
  in
  check Alcotest.int "static lock" 1 stats2.Import.locks_static

(* {2 Filtering} *)

let test_filter_fn_blacklist () =
  let filter = { Filter.empty with Filter.fn_blacklist = [ "init_fn" ] } in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        Event.Fun_enter { fn = "init_fn"; loc };
        Event.Fun_enter { fn = "helper"; loc };
        write base (* dropped: init_fn is on the stack *);
        Event.Fun_exit { fn = "helper" };
        Event.Fun_exit { fn = "init_fn" };
        write base (* kept *);
      ]
  in
  check Alcotest.int "one dropped" 1 stats.Import.filtered_fn;
  check Alcotest.int "one kept" 1 stats.Import.accesses_kept

let test_filter_kinds () =
  let filter =
    { Filter.empty with Filter.drop_lock_members = true; drop_atomic_members = true }
  in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        write (base + 8) (* w_lock *);
        write (base + 20) (* w_cnt, atomic *);
        write base (* w_a, kept *);
      ]
  in
  check Alcotest.int "kind-filtered" 2 stats.Import.filtered_kind;
  check Alcotest.int "kept" 1 stats.Import.accesses_kept

let test_filter_member_blacklist () =
  let filter =
    { Filter.empty with Filter.member_blacklist = [ ("widget", "w_b") ] }
  in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        write (base + 12) (* w_b, black-listed *);
        write base;
      ]
  in
  check Alcotest.int "member-filtered" 1 stats.Import.filtered_member;
  check Alcotest.int "kept" 1 stats.Import.accesses_kept

let test_stack_recorded () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        Event.Fun_enter { fn = "outer"; loc };
        Event.Fun_enter { fn = "inner"; loc };
        write base;
        Event.Fun_exit { fn = "inner" };
        Event.Fun_exit { fn = "outer" };
      ]
  in
  let a = Store.access store 0 in
  check (Alcotest.list Alcotest.string) "stack innermost-first"
    [ "inner"; "outer" ]
    (Store.stack store a.Schema.ac_stack)

(* {2 IRQ handling modes} *)

let irq_events =
  [
    Event.Ctx_switch { pid = 1; kind = Event.Task };
    alloc base;
    acquire ~name:"task_lock" lock1;
    Event.Ctx_switch { pid = 1001; kind = Event.Hardirq };
    acquire ~kind:Event.Pseudo ~name:"hardirq" 0x5;
    read base;
    release 0x5;
    Event.Ctx_switch { pid = 1; kind = Event.Task };
    release lock1;
  ]

let test_irq_inherit () =
  let store, _ = Import.run ~filter:Filter.empty ~irq_mode:Import.Inherit (mk_trace irq_events) in
  match (Store.access store 0).Schema.ac_txn with
  | Some t ->
      check (Alcotest.list Alcotest.string) "handler sees task lock + pseudo"
        [ "task_lock"; "hardirq" ] (txn_locks store t)
  | None -> Alcotest.fail "handler access lost its transaction"

let test_irq_separate () =
  let store, _ = Import.run ~filter:Filter.empty ~irq_mode:Import.Separate (mk_trace irq_events) in
  match (Store.access store 0).Schema.ac_txn with
  | Some t ->
      check (Alcotest.list Alcotest.string) "handler sees only the pseudo lock"
        [ "hardirq" ] (txn_locks store t)
  | None -> Alcotest.fail "handler access lost its transaction"

(* {2 CSV export/import} *)

let test_csv_roundtrip () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"ext4" base;
        acquire ~name:"w_lock" (base + 8);
        write base;
        Event.Fun_enter { fn = "writer"; loc };
        read (base + 12);
        Event.Fun_exit { fn = "writer" };
        release (base + 8);
        Event.Free { ptr = base };
      ]
  in
  let dir = Filename.temp_file "lockdoc_csv" "" in
  Sys.remove dir;
  let back = Lockdoc_db.Csv.import ~dir:(Lockdoc_db.Csv.export ~dir store; dir) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.file_exists p then Sys.remove p)
        Lockdoc_db.Csv.files;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      check Alcotest.int "accesses survive" (Store.n_accesses store)
        (Store.n_accesses back);
      check Alcotest.int "txns survive" (Store.n_txns store) (Store.n_txns back);
      check Alcotest.int "locks survive" (Store.n_locks store) (Store.n_locks back);
      check Alcotest.int "allocations survive" (Store.n_allocations store)
        (Store.n_allocations back);
      check (Alcotest.list Alcotest.string) "type keys survive"
        (Store.type_keys store) (Store.type_keys back);
      (* Row-level fidelity for the access table. *)
      for i = 0 to Store.n_accesses store - 1 do
        let a = Store.access store i and b = Store.access back i in
        check Alcotest.string "member" a.Schema.ac_member b.Schema.ac_member;
        check (Alcotest.option Alcotest.int) "txn" a.Schema.ac_txn b.Schema.ac_txn;
        check (Alcotest.list Alcotest.string) "stack"
          (Store.stack store a.Schema.ac_stack)
          (Store.stack back b.Schema.ac_stack)
      done;
      (* The analysis gives identical answers on the reloaded store. *)
      let mined s =
        Lockdoc_core.Derivator.derive_all (Lockdoc_core.Dataset.of_store s)
        |> List.map (fun m ->
               ( m.Lockdoc_core.Derivator.m_member,
                 Lockdoc_core.Rule.to_string m.Lockdoc_core.Derivator.m_winner ))
      in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "identical mined rules" (mined store) (mined back))

(* {2 Store misc} *)

let test_stack_interning () =
  let store = Store.create () in
  let a = Store.intern_stack store [ "f"; "g" ] in
  let b = Store.intern_stack store [ "f"; "g" ] in
  let c = Store.intern_stack store [ "g"; "f" ] in
  check Alcotest.int "same stack same id" a b;
  check Alcotest.bool "different stack new id" true (a <> c)

let test_layout_of_key () =
  let store, _ =
    import ~filter:Filter.empty
      [ Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"x" base; read base ]
  in
  (match Store.layout_of_key store "widget:x" with
  | Some l -> check Alcotest.string "layout found" "widget" l.Layout.ty_name
  | None -> Alcotest.fail "subclassed key did not resolve")

(* {2 Anomaly recovery} *)

let task = Event.Ctx_switch { pid = 1; kind = Event.Task }

let lenient events = Import.run ~mode:Import.Lenient (mk_trace events)

let test_lenient_double_free () =
  let _, stats =
    lenient [ task; alloc base; Event.Free { ptr = base }; Event.Free { ptr = base } ]
  in
  check Alcotest.int "double free" 1 stats.Import.anomalies.Import.an_double_free;
  check Alcotest.int "total" 1 (Import.anomaly_total stats)

let test_lenient_free_without_alloc () =
  let _, stats = lenient [ task; Event.Free { ptr = 0x4242 } ] in
  check Alcotest.int "free without alloc" 1
    stats.Import.anomalies.Import.an_free_without_alloc

let test_lenient_access_after_free () =
  let _, stats =
    lenient [ task; alloc base; Event.Free { ptr = base }; read (base + 4) ]
  in
  check Alcotest.int "access after free" 1
    stats.Import.anomalies.Import.an_access_after_free;
  (* Recovery: the access also counts as unresolved, like any access
     outside a live allocation. *)
  check Alcotest.int "still unresolved" 1 stats.Import.unresolved

let test_lenient_acquire_on_freed () =
  let _, stats =
    lenient
      [ task; alloc base; Event.Free { ptr = base }; acquire (base + 8);
        release (base + 8) ]
  in
  check Alcotest.int "acquire on freed" 1
    stats.Import.anomalies.Import.an_acquire_on_freed

let test_lenient_unknown_data_type () =
  let _, stats =
    lenient
      [ task;
        Event.Alloc { ptr = 0x5000; size = 8; data_type = "mystery"; subclass = None };
        Event.Free { ptr = 0x5000 } ]
  in
  check Alcotest.int "unknown type" 1
    stats.Import.anomalies.Import.an_unknown_data_type;
  (* The skipped allocation makes its free dangle; that is a second,
     distinct anomaly. *)
  check Alcotest.int "free dangles" 1
    stats.Import.anomalies.Import.an_free_without_alloc

let test_lenient_flow_conflict () =
  let _, stats =
    lenient
      [ task; Event.Ctx_switch { pid = 1; kind = Event.Softirq }; task ]
  in
  check Alcotest.int "flow conflict" 1
    stats.Import.anomalies.Import.an_flow_conflict

let test_lenient_unclosed_txn () =
  let store, stats = lenient [ task; acquire 0x50; write base ] in
  check Alcotest.int "unclosed" 1 stats.Import.anomalies.Import.an_unclosed_txns;
  (* Flushed, not dropped: the transaction row exists. *)
  check Alcotest.bool "txn flushed" true (Store.n_txns store > 0)

let test_strict_raises_on_fatal () =
  let events = [ task; alloc base; Event.Free { ptr = base }; Event.Free { ptr = base } ] in
  match Import.run ~mode:Import.Strict (mk_trace events) with
  | _ -> Alcotest.fail "strict mode accepted a double free"
  | exception Trace.Invalid d ->
      check Alcotest.string "kind" "double-free"
        (Lockdoc_trace.Diag.kind_to_string d.Lockdoc_trace.Diag.d_kind)

let test_modes_agree_on_clean_trace () =
  let trace = Lockdoc_ksim.Run.quick ~seed:3 () in
  let _, strict = Import.run ~mode:Import.Strict trace in
  let _, len = Import.run ~mode:Import.Lenient trace in
  check Alcotest.bool "stats identical" true (strict = len);
  check Alcotest.int "no anomalies" 0 (Import.anomaly_total strict);
  (* A clean trace's stats render without any anomaly section. *)
  let rendered = Format.asprintf "%a" Import.pp_stats strict in
  check Alcotest.bool "no anomaly lines" false
    (String.split_on_char '\n' rendered
    |> List.exists (fun l ->
           String.length l >= 9 && String.sub l 0 9 = "anomalies"))

(* {2 The engine against a naive reference importer} *)

(* Layouts the engine must resolve exactly as [Layout.member_at]: gaps,
   overlapping members (the first in layout order wins), a zero-size
   member, a member reaching below offset 0, and one at offset 2^40. *)
let member ?(kind = Layout.Data) name off size =
  { Layout.m_name = name; m_offset = off; m_size = size; m_kind = kind }

let holey =
  {
    Layout.ty_name = "holey";
    ty_size = 32;
    members =
      [
        member "a" 0 4;
        member "b" 2 8;
        member ~kind:Layout.Lock "l" 12 4;
        member "c" 16 8;
        member "empty" 30 0;
        member "under" (-4) 6;
        member ~kind:Layout.Atomic "n" 24 4;
      ];
  }

let gappy =
  {
    Layout.ty_name = "gappy";
    ty_size = 40;
    members =
      [
        member "under" (-4) 8;
        member "a" 0 8;
        member "b" 16 8;
        member ~kind:Layout.Lock "l" 20 8;
        member "far" (1 lsl 40) 8;
      ];
  }

let ref_layouts = [ widget; holey; gappy ]

let ref_filter =
  {
    Filter.default with
    Filter.fn_blacklist = [ "init_fn"; "atomic_read" ];
    member_blacklist = [ ("holey", "c"); ("gappy", "b") ];
  }

let expect_reference ?filter ?irq_mode ?(layouts = ref_layouts) name events =
  match Import_ref.diff ?filter ?irq_mode layouts events with
  | "" -> ()
  | d -> Alcotest.failf "%s: %s" name d

let test_ref_straddle () =
  let a = base and b = base + 16 in
  let events =
    [
      task;
      Event.Alloc { ptr = a; size = 16; data_type = "holey"; subclass = None };
      Event.Alloc { ptr = b; size = 16; data_type = "holey"; subclass = None };
      read a;
      Event.Free { ptr = a };
      Event.Free { ptr = b };
      read (b + 4) (* after free *);
      (* One allocation over the tail of [a] and the head of [b]. *)
      Event.Alloc { ptr = a + 8; size = 16; data_type = "holey"; subclass = Some "s" };
      read (a + 2) (* [a] is reused: unresolved, not after free *);
      read (b + 12) (* likewise [b] *);
      read (a + 8);
      Event.Free { ptr = a };
      Event.Free { ptr = b };
    ]
  in
  expect_reference ~filter:ref_filter "straddle" events;
  let _, _, stats = Import_ref.engine ~filter:ref_filter ref_layouts events in
  check Alcotest.int "one access after free" 1
    stats.Import.anomalies.Import.an_access_after_free;
  check Alcotest.int "reused regions free as never allocated" 2
    stats.Import.anomalies.Import.an_free_without_alloc

let test_ref_freed_embedded_lock () =
  let events =
    [
      task;
      alloc base;
      acquire (base + 8) (* w_lock *);
      write base;
      release (base + 8);
      Event.Free { ptr = base };
      read base;
      acquire (base + 8);
      write (base + 12);
      release (base + 8);
    ]
  in
  expect_reference "freed embedded lock" events;
  let _, _, stats = Import_ref.engine ref_layouts events in
  check Alcotest.int "acquire on freed" 1
    stats.Import.anomalies.Import.an_acquire_on_freed;
  check Alcotest.int "accesses after free" 2
    stats.Import.anomalies.Import.an_access_after_free

let test_ref_odd_layouts () =
  let far = base + (1 lsl 40) in
  let at ty ptr size = Event.Alloc { ptr; size; data_type = ty; subclass = None } in
  let touch p = List.init 44 (fun off -> read (p + off)) in
  let events =
    [ task; at "holey" base 40; at "gappy" (base + 0x100) ((1 lsl 40) + 16) ]
    @ touch base @ touch (base + 0x100)
    @ [ read (far + 0x100); read (far + 0x107); read (far + 0x108) ]
    @ [ acquire (base + 13); acquire (base + 0x100 + 20); acquire (base + 0x100 + 17) ]
  in
  List.iter
    (fun (fname, filter) ->
      expect_reference ~filter ("odd layouts, " ^ fname) events)
    [ ("empty", Filter.empty); ("default", Filter.default); ("custom", ref_filter) ]

(* Allocations so large that offsets into them approach max_int: every
   access past the members stays unresolved, and after the free, an
   access after free. *)
let test_ref_huge_allocations () =
  let at ty ptr size = Event.Alloc { ptr; size; data_type = ty; subclass = None } in
  let far = 1 lsl 61 in
  List.iter
    (fun (name, ptr, size) ->
      let touch =
        [ read ptr; read (ptr + 13); read (ptr + far); read (ptr + size - 1);
          acquire (ptr + far); acquire (ptr + 12) ]
      in
      expect_reference ~filter:ref_filter name
        ([ task; at "holey" ptr size ] @ touch
        @ [ Event.Free { ptr }; read (ptr + far); at "widget" (ptr + 64) 16 ]
        @ touch))
    [ ("size 2^61 + 64", base, far + 64); ("size max_int", 0, max_int) ]

let ref_event_gen =
  let open QCheck.Gen in
  let bases = [ base; base + 0x10; base + 0x20; base + 0x40; base + 0x60 ] in
  let ptr = oneofl bases in
  let statics = [ 0x50; 0x60 ] in
  let lock_ptr =
    oneof [ map2 ( + ) ptr (oneofl [ 4; 8; 12; 13; 20 ]); oneofl statics ]
  in
  let fn = oneofl [ "f"; "g"; "init_fn"; "atomic_read" ] in
  frequency
    [
      ( 3,
        map3
          (fun (p, size) ty subclass ->
            Event.Alloc { ptr = p; size; data_type = ty; subclass })
          (pair ptr (oneofl [ 8; 16; 24; 40; 0x40 ]))
          (oneofl [ "widget"; "holey"; "gappy"; "nosuch" ])
          (oneofl [ None; Some "x" ]) );
      (2, map (fun p -> Event.Free { ptr = p }) (oneof [ ptr; return 0x2000 ]));
      ( 8,
        map3
          (fun p off w ->
            Event.Mem_access
              { ptr = p + off; size = 4; kind = (if w then Event.Write else Event.Read); loc })
          ptr (int_bound 0x48) bool );
      ( 3,
        map2
          (fun p shared ->
            Event.Lock_acquire
              {
                lock_ptr = p;
                kind = Event.Rwsem;
                side = (if shared then Event.Shared else Event.Exclusive);
                name = "L";
                loc;
              })
          lock_ptr bool );
      (3, map release lock_ptr);
      (2, map (fun fn -> Event.Fun_enter { fn; loc }) fn);
      (2, map (fun fn -> Event.Fun_exit { fn }) fn);
      ( 2,
        map2
          (fun pid kind -> Event.Ctx_switch { pid; kind })
          (int_bound 3)
          (frequencyl [ (4, Event.Task); (1, Event.Softirq); (1, Event.Hardirq) ]) );
    ]

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine = naive reference" ~count:400
    (QCheck.make
       ~print:(fun (events, _, _) ->
         String.concat "\n" (List.map Event.to_line events))
       QCheck.Gen.(
         triple
           (list_size (int_range 0 80) ref_event_gen)
           (oneofl [ Filter.empty; Filter.default; ref_filter ])
           (oneofl [ Import.Inherit; Import.Separate ])))
    (fun (events, filter, irq_mode) ->
      match Import_ref.diff ~filter ~irq_mode ref_layouts events with
      | "" -> true
      | d -> QCheck.Test.fail_report d)

let test_ref_family_traces () =
  List.iter
    (fun name ->
      let t = Lockdoc_ksim.Run.workload_trace ~seed:11 name in
      expect_reference ~layouts:t.Trace.layouts name (Array.to_list t.Trace.events))
    [ "pipe"; "fs_inod" ]

let () =
  Alcotest.run "db"
    [
      ( "resolution",
        [
          Alcotest.test_case "member resolution" `Quick test_resolution;
          Alcotest.test_case "unresolved access" `Quick test_unresolved_access;
          Alcotest.test_case "subclass keys" `Quick test_subclass_keys;
          Alcotest.test_case "address reuse" `Quick test_address_reuse;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "nested resume" `Quick test_nested_txn_resumes;
          Alcotest.test_case "out-of-order release" `Quick test_out_of_order_release;
          Alcotest.test_case "unbalanced release" `Quick test_unbalanced_release;
          Alcotest.test_case "per-context state" `Quick test_per_context_lock_state;
          Alcotest.test_case "embedded lock parent" `Quick test_embedded_lock_parent;
        ] );
      ( "filtering",
        [
          Alcotest.test_case "function blacklist" `Quick test_filter_fn_blacklist;
          Alcotest.test_case "lock/atomic members" `Quick test_filter_kinds;
          Alcotest.test_case "member blacklist" `Quick test_filter_member_blacklist;
          Alcotest.test_case "stack recorded" `Quick test_stack_recorded;
        ] );
      ( "irq",
        [
          Alcotest.test_case "inherit mode" `Quick test_irq_inherit;
          Alcotest.test_case "separate mode" `Quick test_irq_separate;
        ] );
      ( "csv",
        [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip ] );
      ( "store",
        [
          Alcotest.test_case "stack interning" `Quick test_stack_interning;
          Alcotest.test_case "layout of key" `Quick test_layout_of_key;
        ] );
      ( "anomalies",
        [
          Alcotest.test_case "double free" `Quick test_lenient_double_free;
          Alcotest.test_case "free without alloc" `Quick
            test_lenient_free_without_alloc;
          Alcotest.test_case "access after free" `Quick
            test_lenient_access_after_free;
          Alcotest.test_case "acquire on freed" `Quick
            test_lenient_acquire_on_freed;
          Alcotest.test_case "unknown data type" `Quick
            test_lenient_unknown_data_type;
          Alcotest.test_case "flow kind conflict" `Quick
            test_lenient_flow_conflict;
          Alcotest.test_case "unclosed txn flushed" `Quick
            test_lenient_unclosed_txn;
          Alcotest.test_case "strict raises" `Quick test_strict_raises_on_fatal;
          Alcotest.test_case "modes agree when clean" `Quick
            test_modes_agree_on_clean_trace;
        ] );
      ( "reference",
        [
          Alcotest.test_case "straddling reuse" `Quick test_ref_straddle;
          Alcotest.test_case "freed embedded lock" `Quick
            test_ref_freed_embedded_lock;
          Alcotest.test_case "odd layouts" `Quick test_ref_odd_layouts;
          Alcotest.test_case "huge allocations" `Quick test_ref_huge_allocations;
          Alcotest.test_case "family traces" `Quick test_ref_family_traces;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        ] );
    ]
