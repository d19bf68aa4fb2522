(* Deltas, the update journal, and provenance-driven incremental
   revalidation: codec roundtrips, crash-recovery semantics (torn tail
   vs. in-place corruption, fault-injection rollback, snapshots), and
   the differential property that incremental state always matches a
   from-scratch run. *)

open Rdf
module Journal = Runtime.Journal
module Incremental = Provenance.Incremental
module Engine = Provenance.Engine

let ex local = Term.iri ("http://example.org/" ^ local)
let p = Iri.of_string "http://example.org/p"
let q = Iri.of_string "http://example.org/q"
let t s pr o = Triple.make (ex s) pr (ex o)

(* ---------------- scratch directories -------------------------------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let dir = Filename.temp_file "shaclprov-journal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_fault ?at site f =
  Runtime.Fault.configure ?at site;
  Fun.protect ~finally:Runtime.Fault.disable f

(* ---------------- deltas --------------------------------------------- *)

let test_delta_apply () =
  let g = Graph.freeze (Graph.of_list [ t "a" p "b"; t "a" q "c" ]) in
  let d = Delta.make ~removes:[ t "a" q "c" ] ~adds:[ t "b" p "c" ] () in
  let g' = Delta.apply d g in
  Alcotest.(check bool) "still frozen" true (Graph.frozen g');
  Alcotest.(check bool) "uid moved" false (Graph.uid g = Graph.uid g');
  Alcotest.check Tgen.graph_testable "applied"
    (Graph.of_list [ t "a" p "b"; t "b" p "c" ])
    g';
  (* no-ops are dropped by [effective] *)
  let noop = Delta.make ~removes:[ t "x" p "y" ] ~adds:[ t "a" p "b" ] () in
  Alcotest.(check bool) "noop delta is empty" true
    (Delta.is_empty (Delta.effective noop g))

let test_delta_terms () =
  let d = Delta.make ~removes:[ t "a" p "b" ] ~adds:[ t "c" q "d" ] () in
  Alcotest.check Tgen.term_set_testable "endpoints"
    (Term.Set.of_list [ ex "a"; ex "b"; ex "c"; ex "d" ])
    (Delta.terms d)

let test_delta_codec_awkward () =
  (* newline-bearing literals and blank nodes must survive the framing *)
  let d =
    Delta.make
      ~removes:[ Triple.make (Term.Blank "b0") p (Term.str "line1\nline2") ]
      ~adds:[ Triple.make (ex "a") q (Term.str "tab\there \"quoted\"") ]
      ()
  in
  match Delta.decode (Delta.encode d) with
  | Error msg -> Alcotest.fail msg
  | Ok d' ->
      Alcotest.check Tgen.graph_testable "removes"
        (Graph.of_list d.Delta.removes)
        (Graph.of_list d'.Delta.removes);
      Alcotest.check Tgen.graph_testable "adds"
        (Graph.of_list d.Delta.adds)
        (Graph.of_list d'.Delta.adds)

let test_delta_decode_garbage () =
  List.iter
    (fun s ->
      match Delta.decode s with
      | Ok _ -> Alcotest.failf "%S should not decode" s
      | Error _ -> ())
    [ ""; "abc"; "\x00\x00\x00\xffrest"; "\x00\x00\x00\x02not turtle (" ]

let prop_delta_roundtrip =
  QCheck.Test.make ~count:200 ~name:"delta decode∘encode preserves both sides"
    (QCheck.make
       (QCheck.Gen.pair
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) Tgen.gen_triple)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) Tgen.gen_triple)))
    (fun (removes, adds) ->
      let d = Delta.make ~removes ~adds () in
      match Delta.decode (Delta.encode d) with
      | Error _ -> false
      | Ok d' ->
          Graph.equal (Graph.of_list removes) (Graph.of_list d'.Delta.removes)
          && Graph.equal (Graph.of_list adds) (Graph.of_list d'.Delta.adds))

(* ---------------- journal -------------------------------------------- *)

let test_policy_of_string () =
  Alcotest.(check bool) "always" true
    (Journal.policy_of_string "always" = Ok Journal.Always);
  Alcotest.(check bool) "never" true
    (Journal.policy_of_string "never" = Ok Journal.Never);
  Alcotest.(check bool) "every:3" true
    (Journal.policy_of_string "every:3" = Ok (Journal.Every 3));
  List.iter
    (fun s ->
      match Journal.policy_of_string s with
      | Ok _ -> Alcotest.failf "%S should be rejected" s
      | Error _ -> ())
    [ ""; "sometimes"; "every:"; "every:0"; "every:-1"; "every:x" ]

let deltas_123 =
  [ Delta.make ~adds:[ t "a" p "b" ] ();
    Delta.make ~adds:[ t "b" q "c"; t "c" p "d" ] ();
    Delta.make ~removes:[ t "a" p "b" ] ~adds:[ t "a" p "c" ] () ]

let final_graph =
  List.fold_left (fun g d -> Delta.apply d g) Graph.empty deltas_123

let test_journal_append_recover () =
  with_dir (fun dir ->
      let r = Journal.recover dir in
      Alcotest.(check bool) "fresh" true r.Journal.fresh;
      Alcotest.(check int) "seq 0" 0 (Journal.last_seq r.Journal.journal);
      List.iteri
        (fun i d ->
          Alcotest.(check int) "seq"
            (i + 1)
            (Journal.append r.Journal.journal d))
        deltas_123;
      Journal.close r.Journal.journal;
      let r2 = Journal.recover dir in
      Alcotest.(check bool) "not fresh" false r2.Journal.fresh;
      Alcotest.(check int) "replayed" 3 r2.Journal.replayed;
      Alcotest.(check int) "last seq" 3 r2.Journal.last_seq;
      Alcotest.(check int) "nothing discarded" 0 r2.Journal.discarded;
      Alcotest.check Tgen.graph_testable "replayed graph" final_graph
        r2.Journal.graph;
      Journal.close r2.Journal.journal)

let append_all dir deltas =
  let r = Journal.recover dir in
  List.iter (fun d -> ignore (Journal.append r.Journal.journal d : int)) deltas;
  Journal.close r.Journal.journal

let log_path dir = Filename.concat dir "journal.log"

let with_log_bytes dir f =
  let ic = open_in_bin (log_path dir) in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let out = f bytes in
  let oc = open_out_bin (log_path dir) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc out)

let test_journal_torn_tail () =
  (* a crash can leave any prefix of the last record; every such tail is
     discarded silently and the acked prefix survives *)
  List.iter
    (fun keep ->
      with_dir (fun dir ->
          append_all dir deltas_123;
          let full = ref 0 in
          with_log_bytes dir (fun bytes ->
              full := String.length bytes;
              (* re-append a torn copy of the first record's first [keep]
                 bytes (or garbage when shorter than a header) *)
              bytes ^ String.sub bytes 0 keep);
          let r = Journal.recover dir in
          Alcotest.(check int) "replayed" 3 r.Journal.replayed;
          Alcotest.(check int) "discarded" keep r.Journal.discarded;
          Alcotest.check Tgen.graph_testable "graph" final_graph
            r.Journal.graph;
          (* the torn tail was truncated away: appending again works *)
          ignore (Journal.append r.Journal.journal (List.hd deltas_123) : int);
          Journal.close r.Journal.journal;
          let r2 = Journal.recover dir in
          Alcotest.(check int) "replayed after truncate" 4 r2.Journal.replayed;
          Journal.close r2.Journal.journal))
    [ 3; 8; 13 ]

let test_journal_corrupt_tail_checksum () =
  (* a bit flip in the very last record is indistinguishable from a torn
     write of that record: discarded, not fatal *)
  with_dir (fun dir ->
      append_all dir deltas_123;
      let flipped_at = ref 0 in
      with_log_bytes dir (fun bytes ->
          let b = Bytes.of_string bytes in
          let i = Bytes.length b - 1 in
          flipped_at := i;
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          Bytes.to_string b);
      let r = Journal.recover dir in
      Alcotest.(check int) "replayed" 2 r.Journal.replayed;
      Alcotest.(check bool) "tail discarded" true (r.Journal.discarded > 0);
      Journal.close r.Journal.journal)

let test_journal_corrupt_mid_segment () =
  (* damage before the tail is not crash residue: recovery must refuse,
     naming the byte offset of the bad record *)
  with_dir (fun dir ->
      append_all dir deltas_123;
      with_log_bytes dir (fun bytes ->
          let b = Bytes.of_string bytes in
          (* flip a payload byte of the first record (header is 8 bytes) *)
          Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0xff));
          Bytes.to_string b);
      match Journal.recover dir with
      | _ -> Alcotest.fail "mid-segment corruption must raise"
      | exception Journal.Corrupt { offset; reason; _ } ->
          Alcotest.(check int) "offset of the damaged record" 0 offset;
          Alcotest.(check bool) "reason mentions checksum" true
            (String.length reason > 0))

let test_journal_append_fault_rollback () =
  with_dir (fun dir ->
      let r = Journal.recover dir in
      let j = r.Journal.journal in
      ignore (Journal.append j (List.nth deltas_123 0) : int);
      (* a fault before the write leaves nothing behind *)
      (try
         with_fault "journal.append" (fun () ->
             ignore (Journal.append j (List.nth deltas_123 1) : int));
         Alcotest.fail "append fault should raise"
       with Runtime.Fault.Injected _ -> ());
      (* a fault at fsync happens after the write: the record must be
         rolled back, or recovery would replay an un-acked update *)
      (try
         with_fault "journal.fsync" (fun () ->
             ignore (Journal.append j (List.nth deltas_123 1) : int));
         Alcotest.fail "fsync fault should raise"
       with Runtime.Fault.Injected _ -> ());
      (* the journal remains usable and sequence numbers have no gap *)
      Alcotest.(check int) "next seq" 2 (Journal.append j (List.nth deltas_123 1));
      Journal.close j;
      let r2 = Journal.recover dir in
      Alcotest.(check int) "replayed = acked" 2 r2.Journal.replayed;
      Alcotest.(check int) "last seq" 2 r2.Journal.last_seq;
      Journal.close r2.Journal.journal)

let test_journal_snapshot () =
  with_dir (fun dir ->
      let r = Journal.recover dir in
      let j = r.Journal.journal in
      let g = ref Graph.empty in
      List.iter
        (fun d ->
          ignore (Journal.append j d : int);
          g := Delta.apply d !g)
        [ List.nth deltas_123 0; List.nth deltas_123 1 ];
      Journal.snapshot j !g;
      let js : Journal.stats = Journal.stats j in
      Alcotest.(check int) "segment reset" 0 js.records;
      ignore (Journal.append j (List.nth deltas_123 2) : int);
      Journal.close j;
      let r2 = Journal.recover dir in
      (* only the post-snapshot record replays, onto the snapshot graph *)
      Alcotest.(check int) "replayed" 1 r2.Journal.replayed;
      Alcotest.(check int) "last seq" 3 r2.Journal.last_seq;
      Alcotest.check Tgen.graph_testable "graph" final_graph r2.Journal.graph;
      Journal.close r2.Journal.journal)

let test_journal_snapshot_then_stale_log () =
  (* a crash between snapshot-rename and log-truncate leaves records the
     snapshot already covers; replay must skip them *)
  with_dir (fun dir ->
      let r = Journal.recover dir in
      let j = r.Journal.journal in
      let g = ref Graph.empty in
      List.iter
        (fun d ->
          ignore (Journal.append j d : int);
          g := Delta.apply d !g)
        deltas_123;
      let stale = ref "" in
      with_log_bytes dir (fun bytes -> stale := bytes; bytes);
      Journal.snapshot j !g;
      Journal.close j;
      (* resurrect the pre-snapshot segment, as the crash would *)
      let oc = open_out_bin (log_path dir) in
      output_string oc !stale;
      close_out oc;
      let r2 = Journal.recover dir in
      Alcotest.(check int) "all skipped" 0 r2.Journal.replayed;
      Alcotest.(check int) "seq preserved" 3 r2.Journal.last_seq;
      Alcotest.check Tgen.graph_testable "graph" final_graph r2.Journal.graph;
      (* appends continue the sequence after the skipped records *)
      Alcotest.(check int) "next seq" 4
        (Journal.append r2.Journal.journal (List.hd deltas_123));
      Journal.close r2.Journal.journal)

(* ---------------- incremental revalidation --------------------------- *)

let same_report (a : Shacl.Validate.report) (b : Shacl.Validate.report) =
  a.conforms = b.conforms
  && List.length a.results = List.length b.results
  && List.for_all2
       (fun (x : Shacl.Validate.result) (y : Shacl.Validate.result) ->
         Term.equal x.focus y.focus
         && Term.equal x.shape_name y.shape_name
         && x.conforms = y.conforms)
       a.results b.results

let scratch_fragment schema g =
  fst (Engine.run ~schema g (Engine.requests_of_schema schema))

let check_matches_scratch what schema inc =
  let g = Incremental.graph inc in
  let report, _ = Engine.validate schema g in
  Alcotest.(check bool)
    (what ^ ": report = from-scratch validate")
    true
    (same_report report (Incremental.report inc));
  Alcotest.(check string)
    (what ^ ": fragment bytes = from-scratch run")
    (Turtle.to_string (scratch_fragment schema g))
    (Turtle.to_string (Incremental.fragment inc))

let schema_ge =
  (* node target [a]; requires a p-successor *)
  Shacl.Schema.make_exn
    [ { Shacl.Schema.name = ex "S";
        shape = Shacl.Shape.Ge (1, Rdf.Path.Prop p, Shacl.Shape.Top);
        target = Shacl.Shape.Has_value (ex "a") } ]

let test_incremental_flip_both_ways () =
  let inc =
    Incremental.create ~schema:schema_ge
      (Graph.of_list [ t "a" p "b"; t "x" q "y" ])
  in
  check_matches_scratch "initial (conforming)" schema_ge inc;
  Alcotest.(check bool) "conforms" true (Incremental.report inc).conforms;
  (* true -> false: the witnessing edge goes away *)
  let st = Incremental.apply inc (Delta.make ~removes:[ t "a" p "b" ] ()) in
  Alcotest.(check bool) "dirty pair found" true (st.Incremental.dirty >= 1);
  Alcotest.(check bool) "now violated" false (Incremental.report inc).conforms;
  check_matches_scratch "after removal" schema_ge inc;
  (* false -> true: a new witness appears *)
  ignore
    (Incremental.apply inc (Delta.make ~adds:[ t "a" p "c" ] ())
      : Incremental.update_stats);
  Alcotest.(check bool) "conforms again" true (Incremental.report inc).conforms;
  check_matches_scratch "after addition" schema_ge inc

let test_incremental_vacuous_le_flip () =
  (* The regression that shows neighborhoods alone are not a sound
     dependency set: Le(0, p/q, Top) holds vacuously with an EMPTY
     neighborhood, then a two-hop chain built by two single-triple
     deltas flips it.  Only the probe-anchor support sets catch the
     second delta (anchored at [b], which no neighborhood mentions). *)
  let schema =
    Shacl.Schema.make_exn
      [ { Shacl.Schema.name = ex "S";
          shape =
            Shacl.Shape.Le
              (0, Rdf.Path.Seq (Rdf.Path.Prop p, Rdf.Path.Prop q),
               Shacl.Shape.Top);
          target = Shacl.Shape.Has_value (ex "a") } ]
  in
  let inc = Incremental.create ~schema (Graph.of_list [ t "x" q "y" ]) in
  Alcotest.(check bool) "vacuously conforms" true
    (Incremental.report inc).conforms;
  ignore
    (Incremental.apply inc (Delta.make ~adds:[ t "a" p "b" ] ())
      : Incremental.update_stats);
  check_matches_scratch "one hop" schema inc;
  Alcotest.(check bool) "still conforms (no q hop)" true
    (Incremental.report inc).conforms;
  let st = Incremental.apply inc (Delta.make ~adds:[ t "b" q "c" ] ()) in
  Alcotest.(check bool) "second hop dirties the pair" true
    (st.Incremental.dirty >= 1);
  Alcotest.(check bool) "flipped by the two-hop chain" false
    (Incremental.report inc).conforms;
  check_matches_scratch "two hops" schema inc

let test_incremental_skips_unrelated () =
  (* a delta disjoint from every support set rechecks nothing *)
  let inc =
    Incremental.create ~schema:schema_ge
      (Graph.of_list [ t "a" p "b" ])
  in
  let st =
    Incremental.apply inc (Delta.make ~adds:[ t "x" q "y"; t "y" q "z" ] ())
  in
  Alcotest.(check int) "no dirty pairs" 0 st.Incremental.dirty;
  Alcotest.(check int) "no rechecks" 0 st.Incremental.rechecked;
  check_matches_scratch "after unrelated delta" schema_ge inc

(* Random schemas over the shared vocabulary.  Shape generators contain
   no references, so any definition list forms a valid (non-recursive)
   schema. *)
let gen_schema =
  QCheck.Gen.(
    int_range 1 2 >>= fun n ->
    let rec defs i acc =
      if i >= n then return (Shacl.Schema.make_exn (List.rev acc))
      else
        Tgen.gen_shape 2 >>= fun shape ->
        Tgen.gen_shape 1 >>= fun target ->
        defs (i + 1)
          ({ Shacl.Schema.name = ex ("S" ^ string_of_int i); shape; target }
          :: acc)
    in
    defs 0 [])

let gen_delta =
  QCheck.Gen.(
    map2
      (fun removes adds -> Delta.make ~removes ~adds ())
      (list_size (int_range 0 3) Tgen.gen_triple)
      (list_size (int_range 0 3) Tgen.gen_triple))

let arbitrary_case =
  QCheck.make
    ~print:(fun (schema, g0, deltas) ->
      Format.asprintf "@[<v>schema: %a@,graph: %a@,%a@]" Shacl.Schema.pp
        schema Graph.pp g0
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf d ->
             Format.fprintf ppf "delta:@,%a" Delta.pp d))
        deltas)
    QCheck.Gen.(
      triple gen_schema Tgen.gen_graph
        (list_size (int_range 1 3) gen_delta))

(* The acceptance property: after every delta of an arbitrary stream,
   the incremental state matches the sequential oracles recomputed from
   scratch on the current graph — the report byte-for-byte against
   [Validate.validate], the fragment as a graph against
   [Fragment.frag_schema] — and the maintained fragment is sufficient
   (Thm 3.4): every target the report marks conforming still conforms
   to its request shape [phi ∧ tau] inside the fragment, because its
   neighborhood ⊆ fragment ⊆ graph. *)
let prop_incremental_differential =
  QCheck.Test.make ~count:500
    ~name:"incremental ≡ from-scratch under random delta streams"
    arbitrary_case
    (fun (schema, g0, deltas) ->
      let inc = Incremental.create ~schema g0 in
      let report_bytes r = Format.asprintf "%a" Shacl.Validate.pp_report r in
      let request_shape name =
        let def =
          List.find
            (fun (d : Shacl.Schema.def) -> Term.equal d.name name)
            (Shacl.Schema.defs schema)
        in
        Shacl.Shape.and_ [ def.shape; def.target ]
      in
      List.for_all
        (fun d ->
          ignore (Incremental.apply inc d : Incremental.update_stats);
          let g = Incremental.graph inc in
          let report = Incremental.report inc in
          let fragment = Incremental.fragment inc in
          String.equal
            (report_bytes (Shacl.Validate.validate schema g))
            (report_bytes report)
          && Graph.equal (Provenance.Fragment.frag_schema schema g) fragment
          && List.for_all
               (fun (r : Shacl.Validate.result) ->
                 (not r.conforms)
                 || Shacl.Conformance.conforms schema fragment r.focus
                      (request_shape r.shape_name))
               report.results)
        deltas)

(* Durability end-to-end at the library level: journal the same stream,
   recover, and the recovered graph supports the same verdicts. *)
let test_journal_incremental_agree () =
  with_dir (fun dir ->
      let inc = Incremental.create ~schema:schema_ge Graph.empty in
      let r = Journal.recover dir in
      List.iter
        (fun d ->
          ignore (Journal.append r.Journal.journal d : int);
          ignore (Incremental.apply inc d : Incremental.update_stats))
        deltas_123;
      Journal.close r.Journal.journal;
      let r2 = Journal.recover dir in
      Alcotest.check Tgen.graph_testable "recovered graph = live graph"
        (Incremental.graph inc) r2.Journal.graph;
      Journal.close r2.Journal.journal)

let suite =
  [ Alcotest.test_case "delta apply/freeze" `Quick test_delta_apply;
    Alcotest.test_case "delta terms" `Quick test_delta_terms;
    Alcotest.test_case "delta codec awkward" `Quick test_delta_codec_awkward;
    Alcotest.test_case "delta decode garbage" `Quick test_delta_decode_garbage;
    Alcotest.test_case "fsync policy parsing" `Quick test_policy_of_string;
    Alcotest.test_case "journal append/recover" `Quick
      test_journal_append_recover;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal corrupt tail checksum" `Quick
      test_journal_corrupt_tail_checksum;
    Alcotest.test_case "journal corrupt mid-segment" `Quick
      test_journal_corrupt_mid_segment;
    Alcotest.test_case "journal fault rollback" `Quick
      test_journal_append_fault_rollback;
    Alcotest.test_case "journal snapshot" `Quick test_journal_snapshot;
    Alcotest.test_case "journal snapshot then stale log" `Quick
      test_journal_snapshot_then_stale_log;
    Alcotest.test_case "incremental verdict flips both ways" `Quick
      test_incremental_flip_both_ways;
    Alcotest.test_case "incremental vacuous-Le flip" `Quick
      test_incremental_vacuous_le_flip;
    Alcotest.test_case "incremental skips unrelated deltas" `Quick
      test_incremental_skips_unrelated;
    Alcotest.test_case "journal + incremental agree" `Quick
      test_journal_incremental_agree ]

let props = [ prop_delta_roundtrip; prop_incremental_differential ]
