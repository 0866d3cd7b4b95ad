"""The mutation list: one-line faults of ``src/`` that the test suite must
catch, each with the tests that must fail on it.

Each entry is (name, file under the repository root, old text, new text,
test ids). The old text must occur exactly once in the file.
``test_mutants.py`` patches a copy of the repository with each entry and runs
only its test ids there; every one of them must fail. A mutant that no behaviour can tell apart from
the program (an equivalent mutant) does not belong here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    kills: tuple


LANE_BITS = tuple(f"tests/test_model.py::test_lanes_give_the_serial_loops_bits[{w}-{r}]"
                  for w in (60, 128, 500, 2000) for r in (1024, 1025))

MUTANTS = (
    # -- training schedule and optimizer -----------------------------------
    Mutant(
        "grl_warmup_longer",
        "src/adadrug/train.py",
        "warmup = max(1, int(0.1 * total_steps))",
        "warmup = max(1, int(0.2 * total_steps))",
        ("tests/test_train.py::test_grl_schedule",),
    ),
    Mutant(
        "adam_kernel_bias_correction_one_step_ahead",
        "src/adadrug/kernels.py",
        "c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t",
        "c1, c2 = 1.0 - b1 ** (t + 1), 1.0 - b2 ** t",
        tuple(f"tests/test_kernels.py::test_adam_step_is_bitwise_the_textbook_order[{s}]"
              for s in ("shape0", "shape1", "shape2")),
    ),
    Mutant(
        "adam_kernel_skips_the_last_partial_block",
        "src/adadrug/kernels.py",
        "for lo in range(0, n, ADAM_BLOCK):",
        "for lo in range(0, n - n % ADAM_BLOCK, ADAM_BLOCK):",
        tuple(f"tests/test_kernels.py::test_adam_step_is_bitwise_the_textbook_order[{s}]"
              for s in ("shape0", "shape2")),
    ),
    Mutant(
        "adam_kernel_updates_a_copy_of_a_strided_array",
        "src/adadrug/kernels.py",
        "if not a.flags.c_contiguous:",
        "if False:",
        tuple(f"tests/test_kernels.py::"
              f"test_adam_step_refuses_an_array_it_could_only_reach_through_a_copy[{s}]"
              for s in "pgmv"),
    ),
    Mutant(
        "adam_step_count_one_ahead",
        "src/adadrug/train.py",
        "self.eps, self.t, self.s1, self.s2)",
        "self.eps, self.t + 1, self.s1, self.s2)",
        ("tests/test_train.py::test_adam_first_step_moves_each_parameter_by_lr",),
    ),
    Mutant(
        "grl_total_over_one_epoch_too_many",
        "src/adadrug/train.py",
        "total_steps = dat.epoch_length(work, cfg.batch_size) * cfg.epochs",
        "total_steps = dat.epoch_length(work, cfg.batch_size) * (cfg.epochs + 1)",
        ("tests/test_train.py::"
         "test_train_feeds_grl_coefficient_each_step_and_the_run_total",),
    ),
    # -- data --------------------------------------------------------------
    Mutant(
        "one_label_stream_for_every_source",
        "src/adadrug/data.py",
        "ys = [d.labels[streams[k][sl]] for k, d in enumerate(bundle.sources)]",
        "ys = [d.labels[streams[0][sl]] for k, d in enumerate(bundle.sources)]",
        ("tests/test_data.py::test_assemble_batches_pairs_each_row_with_its_own_label",),
    ),
    Mutant(
        "assemble_batches_builds_the_epoch_list_again",
        "src/adadrug/data.py",
        "return _gather_batches(bundle, streams, n_batches, batch_size)",
        "return list(_gather_batches(bundle, streams, n_batches, batch_size))",
        ("tests/test_data.py::test_an_epoch_holds_one_tuple_batch_at_a_time",),
    ),
    Mutant(
        "read_table_finite_check_removed",
        "src/adadrug/data.py",
        "parsed = np.isfinite(row).all()",
        "parsed = True",
        ("tests/test_data.py::test_one_table_rule_gives_one_message[expression-non_finite]",
         "tests/test_data.py::test_one_table_rule_gives_one_message[labels-non_finite]",
         "tests/test_data.py::test_one_table_rule_gives_one_message[scores-non_finite]"),
    ),
    Mutant(
        "read_table_per_cell_fallback_removed",
        "src/adadrug/data.py",
        "row = np.array(list(map(_parse_cell, cells, repeat(line), columns)))",
        'raise ParseError(f"line {line}: unreadable {what} row")',
        ("tests/test_data.py::test_one_table_rule_gives_one_message[expression-non_numeric]",
         "tests/test_data.py::test_one_table_rule_gives_one_message[labels-empty_cell]",
         "tests/test_data.py::test_one_table_rule_gives_one_message[scores-non_finite]"),
    ),
    Mutant(
        "record_reader_splits_quoted_lines_too",
        "src/adadrug/data.py",
        "if '\"' in line:",
        "if False:",
        tuple(f"tests/test_data.py::test_read_table_matches_the_per_cell_reader[{t}]"
              for t in ("expression", "labels", "scores")),
    ),
    Mutant(
        "csv_error_escapes_the_record_reader",
        "src/adadrug/data.py",
        "except csv.Error as e:",
        "except ParseError as e:",
        ("tests/test_data.py::test_a_quoted_cell_over_the_csv_field_limit_is_a_parse_error"
         "[one_line]",
         "tests/test_data.py::test_a_quoted_cell_over_the_csv_field_limit_is_a_parse_error"
         "[continued]",
         "tests/test_cli.py::"
         "test_prep_with_a_quoted_cell_over_the_csv_field_limit_exits_2_naming_the_file"),
    ),
    Mutant(
        "parse_errors_do_not_name_their_file",
        "src/adadrug/data.py",
        'raise ParseError(f"{path}: {e}") from None',
        "raise",
        ("tests/test_cli.py::test_a_bad_cell_in_the_second_source_names_its_file",
         "tests/test_data.py::test_gene_list_refuses_a_repeated_gene_naming_its_line",
         "tests/test_data.py::test_one_table_rule_gives_one_message[labels-blank_lines_only]"),
    ),
    Mutant(
        "copy_reader_skips_the_table_hash_check",
        "src/adadrug/data.py",
        'if _file_sha256(path) != header["table_sha256"]:',
        "if False:",
        ("tests/test_data.py::test_a_table_edited_after_prep_loads_its_edited_values",
         "tests/test_cli.py::"
         "test_a_malformed_table_with_a_stale_copy_exits_2_as_without_one"),
    ),
    Mutant(
        "copy_reader_skips_the_delimiter_check",
        "src/adadrug/data.py",
        'if header["delimiter"] != delim:',
        "if False:",
        tuple(f"tests/test_data.py::"
              f"test_a_copy_read_with_the_other_format_is_passed_over[{case}]"
              for case in ("csv-tsv", "tsv-csv")),
    ),
    Mutant(
        "align_genes_ignores_list_order",
        "src/adadrug/data.py",
        "(matrices[0].gene_names if genes is None else genes)",
        "(matrices[0].gene_names if genes is None else\n"
        "                [g for g in matrices[0].gene_names if g in genes])",
        ("tests/test_data.py::"
         "test_align_to_a_gene_list_keeps_its_order_and_only_shared_genes",
         "tests/test_cli.py::test_train_with_gene_list_uses_the_listed_genes_in_list_order"),
    ),
    Mutant(
        "smote_names_synthetic_rows_after_their_number_alone",
        "src/adadrug/data.py",
        '[f"{sid}#r{i}" for i, sid in enumerate(parents)],',
        'ids + [f"smote{i}" for i in range(needed)],',
        ("tests/test_data.py::test_smote_names_rows_so_that_no_input_id_collides",),
    ),
    Mutant(
        "an_input_directory_escapes_open_text",
        "src/adadrug/data.py",
        "except OSError as e:",
        "except FileNotFoundError as e:",
        tuple(f"tests/test_cli.py::test_an_input_that_is_a_directory_exits_2_naming_it[{c}]"
              for c in ("prep-target_expression", "prep-gene_list", "train-config",
                        "train-source_labels", "evaluate-scores")),
    ),
    Mutant(
        "table_keys_written_unquoted",
        "src/adadrug/data.py",
        "fh.write(_csv_cells([key], delim) + delim",
        "fh.write(str(key) + delim",
        ("tests/test_evaluate.py::test_scores_csv_roundtrip",
         "tests/test_evaluate.py::test_export_embeddings_roundtrip_and_identity"),
    ),
    # -- run inputs ----------------------------------------------------------
    Mutant(
        "labels_cast_before_they_are_checked",
        "src/adadrug/data.py",
        "if not np.isin(labels, (0, 1)).all():",
        "if not np.isin(labels.astype(np.int64), (0, 1)).all():",
        ("tests/test_data.py::"
         "test_a_domain_label_that_is_not_exactly_0_or_1_is_refused_not_truncated[0.5]",
         *(f"tests/test_evaluate.py::"
           f"test_a_label_that_is_not_exactly_0_or_1_is_refused_not_truncated[0.5-{m}]"
           for m in ("auroc", "aupr"))),
    ),
    Mutant(
        "empty_gene_list_accepted",
        "src/adadrug/cli.py",
        'if gene_list == "":',
        "if False:",
        ("tests/test_cli.py::test_bad_path_setting_is_config_error[gene_list-empty]",),
    ),
    Mutant(
        "one_class_target_labels_accepted",
        "src/adadrug/cli.py",
        "if np.unique(labels).size != 2:",
        "if False:",
        tuple(f"tests/test_cli.py::"
              f"test_bad_target_labels_exit_2_before_training_or_writing[one_class-{c}]"
              for c in ("train", "ablate")),
    ),
    Mutant(
        "missing_label_does_not_name_its_file",
        "src/adadrug/cli.py",
        'raise ValueError(f"{path}: {e}") from None',
        "raise",
        ("tests/test_cli.py::test_a_source_sample_without_a_label_names_the_labels_file",
         "tests/test_cli.py::"
         "test_bad_target_labels_exit_2_before_training_or_writing[other_ids-train]",
         "tests/test_cli.py::"
         "test_bad_target_labels_exit_2_before_training_or_writing[other_ids-ablate]"),
    ),
    Mutant(
        "prep_overwrites_its_inputs",
        "src/adadrug/cli.py",
        "check_outputs(\n        [*args.sources, args.target, args.gene_list, args.deg_a,"
        " args.deg_b,\n         args.pathways],",
        "check_outputs(\n        [],",
        tuple(f"tests/test_cli.py::test_an_output_that_is_an_input_exits_2_naming_it[{c}]"
              for c in ("prep-source_expression-target.csv",
                        "prep-target_expression-source_0.csv",
                        "prep-source_expression-source_1.csv.f8",
                        "prep-gene_list-prep_summary.json",
                        "prep-pathways-target.csv.f8")),
    ),
    Mutant(
        "prep_writes_selection_order",
        "src/adadrug/cli.py",
        "genes = [g for g in exprs[0].gene_names if g in keep]",
        "genes = selection.genes",
        ("tests/test_cli.py::test_prep_gene_list_writes_the_first_source_order",),
    ),
    Mutant(
        "synth_rules_skip_seed",
        "src/adadrug/synth.py",
        '(("shift", "noise", "seed"), lambda v: v >= 0, ">= 0"),',
        '(("shift", "noise"), lambda v: v >= 0, ">= 0"),',
        ("tests/test_synth.py::test_config_rule_names_its_field[seed]",
         "tests/test_synth.py::test_config_refuses_a_negative_seed_and_stores_floats"),
    ),
    Mutant(
        "run_benchmark_seeds_checked_only_when_run",
        "src/adadrug/synth.py",
        "replace(train_cfg, seed=s)",
        "s",
        ("tests/test_synth.py::"
         "test_run_benchmark_checks_every_run_before_the_first_trains[negative_seed]",
         "tests/test_cli.py::"
         "test_synth_bench_checks_every_run_before_the_first_trains[negative_seed]",
         "tests/test_cli.py::test_ablate_negative_seed_exits_2_and_writes_nothing"),
    ),
    Mutant(
        "grid_repeats_accepted",
        "src/adadrug/synth.py",
        "if len(set(items)) != len(items):",
        "if False:",
        ("tests/test_synth.py::"
         "test_run_benchmark_checks_every_run_before_the_first_trains[repeated_seed]",
         "tests/test_synth.py::"
         "test_run_benchmark_checks_every_run_before_the_first_trains[repeated_variant]",
         "tests/test_cli.py::"
         "test_synth_bench_checks_every_run_before_the_first_trains[repeated_seed]",
         "tests/test_cli.py::"
         "test_synth_bench_checks_every_run_before_the_first_trains[repeated_variant]",
         "tests/test_cli.py::test_ablate_repeated_seed_exits_2_and_trains_nothing"),
    ),
    Mutant(
        "ablate_out_not_passed_to_load_run",
        "src/adadrug/cli.py",
        "epochs=args.epochs, output_dir=args.out)",
        "epochs=args.epochs)",
        ("tests/test_cli.py::test_ablate_out_is_echoed_as_output_dir_and_reloads_equal",
         "tests/test_cli.py::test_empty_output_dir_flag_exits_2_and_writes_nothing[ablate]"),
    ),
    Mutant(
        "flags_empty_string_taken_as_unset",
        "src/adadrug/cli.py",
        "return {k: v for k, v in flags.items() if v is not None}",
        'return {k: v for k, v in flags.items() if v is not None and v != ""}',
        ("tests/test_cli.py::test_empty_output_dir_flag_exits_2_and_writes_nothing[train]",
         "tests/test_cli.py::test_empty_output_dir_flag_exits_2_and_writes_nothing[ablate]"),
    ),
    Mutant(
        "synth_bench_empty_seeds_taken_as_unset",
        "src/adadrug/cli.py",
        'seeds = _comma_list("--seeds", args.seeds, int)\n    variants',
        'seeds = _comma_list("--seeds", args.seeds or "0", int)\n    variants',
        ("tests/test_cli.py::test_synth_bench_without_seeds_exits_2_and_writes_nothing[]",),
    ),
    Mutant(
        "synth_bench_variants_parsed_without_naming_the_flag",
        "src/adadrug/cli.py",
        'variants = _comma_list("--variants", args.variants, str)',
        'variants = [v.strip() for v in args.variants.split(",") if v.strip()]',
        tuple(f"tests/test_cli.py::"
              f"test_synth_bench_without_variants_exits_2_naming_the_flag[{i}]"
              for i in ("comma", "blank", "empty")),
    ),
    Mutant(
        "prep_hvg_checked_only_by_select_hvg",
        "src/adadrug/cli.py",
        "if args.hvg is not None and args.hvg < 1:",
        "if False:",
        ("tests/test_cli.py::test_prep_hvg_zero_is_data_error",),
    ),
    Mutant(
        "config_errors_do_not_name_their_file",
        "src/adadrug/cli.py",
        'raise ConfigError(f"{path}: {e}") from None',
        "raise",
        ("tests/test_cli.py::test_config_file_errors_name_the_file[schema]",),
    ),
    Mutant(
        "pathways_error_does_not_name_its_file",
        "src/adadrug/cli.py",
        'raise ValueError(f"{args.pathways}: {e}") from None',
        "raise",
        ("tests/test_cli.py::test_prep_pathways_report_dropped_sets_and_name_the_file",),
    ),
    Mutant(
        "predict_reads_the_labels_files",
        "src/adadrug/cli.py",
        "sources, target = load_matrices(cfg)  # scoring reads no labels",
        "bundle = load_bundle(cfg); sources, target = bundle.sources, bundle.target",
        ("tests/test_cli.py::test_predict_reads_no_labels_file",),
    ),
    Mutant(
        "ablate_checks_its_output_dir_after_the_grid",
        "src/adadrug/cli.py",
        "out = Path(cfg[\"output_dir\"])\n    check_outputs(",
        "bundle = load_bundle(cfg)\n    out = Path(cfg[\"output_dir\"])\n    check_outputs(",
        tuple(f"tests/test_cli.py::"
              f"test_an_output_path_that_cannot_be_written_exits_2_naming_it[{c}]"
              for c in ("ablate-out-file", "ablate-out-ablation.csv",
                        "train-output_dir-file")),
    ),
    Mutant(
        "an_output_compared_by_its_spelling",
        "src/adadrug/cli.py",
        "real = os.path.realpath(path)",
        "real = os.fspath(path)",
        ("tests/test_cli.py::test_an_output_path_that_cannot_be_written_exits_2_naming_it"
         "[predict-out-target_via_dotdot]",),
    ),
    Mutant(
        "predict_writes_out_before_checking_embeddings",
        "src/adadrug/cli.py",
        "(args.out, args.embeddings))",
        "(args.out,))",
        tuple(f"tests/test_cli.py::"
              f"test_an_output_path_that_cannot_be_written_exits_2_naming_it"
              f"[predict-embeddings-{blocker}]"
              for blocker in ("dir", "missing_dir", "source", "gene_list", "out")),
    ),
    Mutant(
        "a_directory_in_the_output_dir_taken_for_a_file",
        "src/adadrug/cli.py",
        "if os.path.isdir(path):",
        "if os.path.isdir(path) and out_dir is None:",
        tuple(f"tests/test_cli.py::"
              f"test_an_output_path_that_cannot_be_written_exits_2_naming_it[{c}]"
              for c in ("prep-out-target.csv", "prep-out-source_0.csv.f8",
                        "prep-out-prep_summary.json", "train-output_dir-checkpoint.bin",
                        "train-output_dir-history.csv", "train-output_dir-scores.csv",
                        "ablate-out-ablation.csv", "synth-bench-out-report.csv")),
    ),
    # -- model -------------------------------------------------------------
    Mutant(
        "he_init_on_fan_out",
        "src/adadrug/model.py",
        "lim = np.sqrt(6.0 / w.shape[0])",
        "lim = np.sqrt(6.0 / w.shape[1])",
        ("tests/test_model.py::test_init_biases_are_exactly_zero_and_weights_bounded",),
    ),
    # the row lanes of mlp_forward run in tier-1 on every machine
    Mutant(
        "lanes_joined_in_the_wrong_order",
        "src/adadrug/model.py",
        "x[half:], out[half:])\n"
        "    try:\n"
        "        _forward(spec, params, x[:half], out[:half])",
        "x[half:], out[:len(x) - half])\n"
        "    try:\n"
        "        _forward(spec, params, x[:half], out[len(x) - half:])",
        LANE_BITS,
    ),
    Mutant(
        "lane_split_drops_a_row",
        "src/adadrug/model.py",
        "spec, params, x[half:], out[half:])",
        "spec, params, x[half + 1:], out[half:-1])",
        LANE_BITS,
    ),
    Mutant(
        "lane_split_repeats_a_row",
        "src/adadrug/model.py",
        "spec, params, x[half:], out[half:])",
        "spec, params, x[half - 1:-1], out[half:])",
        LANE_BITS,
    ),
    # without the pin, each lane's products run on BLAS's own threads too
    Mutant(
        "lanes_stack_on_blas_threads",
        "src/adadrug/model.py",
        "@kernels.one_blas_thread()\ndef mlp_forward(",
        "def mlp_forward(",
        ("tests/test_model.py::"
         "test_mlp_forward_runs_on_one_blas_thread_and_keeps_the_callers_count",),
    ),
    Mutant(
        "lane_error_raised_before_the_other_lane_stops",
        "src/adadrug/model.py",
        "futures.wait((tail,))",
        "pass",
        ("tests/test_model.py::test_a_lane_error_is_raised_once_both_lanes_stopped[caller]",),
    ),
    Mutant(
        "forked_child_hands_work_to_the_parents_lane_worker",
        "src/adadrug/model.py",
        "    os.register_at_fork(after_in_child=_start_lane_worker)",
        "    os.register_at_fork(after_in_child=lambda: None)",
        ("tests/test_model.py::test_a_forked_child_scores_with_lanes_after_its_parent",),
    ),
    Mutant(
        "clamp_passes_the_gradient_at_its_bounds",
        "src/adadrug/autodiff.py",
        "return (g * ((x.value > lo) & (x.value < hi)),)",
        "return (g * ((x.value >= lo) & (x.value <= hi)),)",
        ("tests/test_autodiff.py::test_clamp_passes_no_gradient_at_either_bound",),
    ),
    Mutant(
        "gram_penalty_backward_folds_pairs_in_recording_order",
        "src/adadrug/autodiff.py",
        "for (a, b), gram in zip(reversed(pairs), reversed(saved)):",
        "for (a, b), gram in zip(pairs, saved):",
        ("tests/test_autodiff.py::test_gram_penalty_is_bitwise_the_chain",
         "tests/test_train.py::test_train_step_is_bitwise_the_unfused_graph[full-sigmoid]"),
    ),
    Mutant(
        "bce_passes_the_gradient_at_the_lower_clamp_bound",
        "src/adadrug/autodiff.py",
        "out = [(f / clip) * ((q > lo) & (q < hi)) for q, clip in zip(qs, clipped)]",
        "out = [(f / clip) * ((q >= lo) & (q < hi)) for q, clip in zip(qs, clipped)]",
        ("tests/test_autodiff.py::test_clamped_bce_is_bitwise_the_chain",),
    ),
    Mutant(
        "backward_assigns_a_leaf_contribution",
        "src/adadrug/autodiff.py",
        "parent.grad += contrib",
        "parent.grad[...] = contrib",
        ("tests/test_autodiff.py::test_quadratic_gradient",
         "tests/test_autodiff.py::test_reused_node_accumulates_fanout_gradient",
         "tests/test_autodiff.py::"
         "test_leaf_contributions_added_as_they_arrive_are_bitwise_the_sum_first",
         "tests/test_autodiff.py::"
         "test_backward_adds_leaf_contributions_without_a_second_copy"),
    ),
    Mutant(
        "dense_drops_the_input_gradient",
        "src/adadrug/autodiff.py",
        "gx = g @ W.value.T if x.needs_grad else None",
        "gx = None",
        ("tests/test_autodiff.py::test_dense_passes_no_gradient_to_a_const_input",
         "tests/test_autodiff.py::test_dense_is_bitwise_the_unfused_chain[relu-False]",
         "tests/test_train.py::test_train_step_is_bitwise_the_unfused_graph[full-relu]"),
    ),
    Mutant(
        "needs_grad_ignores_parents",
        "src/adadrug/autodiff.py",
        "self.needs_grad = grad is not None or any(p.needs_grad for p in parents)",
        "self.needs_grad = grad is not None",
        ("tests/test_autodiff.py::test_needs_grad_marks_the_nodes_a_leaf_reaches",
         "tests/test_autodiff.py::test_quadratic_gradient",
         "tests/test_train.py::test_train_step_tape_budget[full-89]"),
    ),
    Mutant(
        "train_step_keeps_its_tape",
        "src/adadrug/train.py",
        "tape.nodes.clear()",
        "pass",
        ("tests/test_train.py::test_train_step_tape_budget[full-89]",
         "tests/test_train.py::test_train_step_tape_budget[no_mda-52]",
         "tests/test_train.py::test_train_step_tape_budget[baseline-45]",
         "tests/test_train.py::test_train_leaves_no_cyclic_garbage"),
    ),
    Mutant(
        "train_keeps_the_last_gradient",
        "src/adadrug/train.py",
        "del grad",
        "pass",
        ("tests/test_train.py::test_a_training_run_holds_one_gradient_vector_at_a_time",),
    ),
    Mutant(
        "train_hands_the_freed_heap_back",
        "src/adadrug/kernels.py",
        "mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)",
        "None",
        ("tests/test_train.py::test_a_warm_training_run_takes_no_new_pages",
         "tests/test_evaluate.py::test_scoring_in_a_process_that_never_trains_takes_no_new_pages"),
    ),
    # -- checkpoints -------------------------------------------------------
    Mutant(
        "checkpoint_save_copies_the_body",
        "src/adadrug/data.py",
        'body = memoryview(np.ascontiguousarray(values, dtype="<f8").ravel())',
        'body = np.ascontiguousarray(values, dtype="<f8").tobytes()',
        ("tests/test_train.py::test_checkpoint_io_copies_the_parameter_block_once",),
    ),
    Mutant(
        "checkpoint_load_reads_the_body_into_bytes_first",
        "src/adadrug/data.py",
        "fh.readinto(values)",
        'values[:] = np.frombuffer(fh.read(), dtype="<f8")',
        ("tests/test_train.py::test_checkpoint_io_copies_the_parameter_block_once",),
    ),
    # read_framed's two body checks, which checkpoints and copies share
    Mutant(
        "checkpoint_checksum_not_compared",
        "src/adadrug/data.py",
        'if _digest(header, values) != header.get("sha256"):',
        "if False:",
        ("tests/test_train.py::test_checkpoint_flipped_body_bit_is_checkpoint_error",
         "tests/test_train.py::test_checkpoint_swapped_array_entries_are_checkpoint_error",
         "tests/test_data.py::test_a_damaged_copy_is_passed_over_for_its_table"
         "[_bit_flipped]"),
    ),
    Mutant(
        "framed_body_may_run_past_its_values",
        "src/adadrug/data.py",
        "if size != need:",
        "if size < need:",
        ("tests/test_train.py::test_checkpoint_truncation_detected",
         "tests/test_data.py::test_a_damaged_copy_is_passed_over_for_its_table"
         "[_trailing_bytes]"),
    ),
    Mutant(
        "checkpoint_errors_do_not_name_their_file",
        "src/adadrug/train.py",
        'raise CheckpointError(f"{path}: {e}") from None',
        "raise CheckpointError(str(e)) from None",
        (*(f"tests/test_train.py::test_every_checkpoint_error_starts_with_the_path[{c}]"
           for c in ("truncated_body", "no_header_line", "garbled_header", "flipped_bit",
                     "other_version", "empty")),
         "tests/test_cli.py::test_an_input_that_is_a_directory_exits_2_naming_it"
         "[predict-checkpoint-truncated]"),
    ),
    Mutant(
        "a_checkpoint_directory_escapes_load_checkpoint",
        "src/adadrug/train.py",
        "except OSError as e:\n        raise CheckpointError",
        "except FileNotFoundError as e:\n        raise CheckpointError",
        ("tests/test_cli.py::test_an_input_that_is_a_directory_exits_2_naming_it"
         "[predict-checkpoint]",),
    ),
    # -- one BLAS thread ---------------------------------------------------
    Mutant(
        "train_without_the_blas_pin",
        "src/adadrug/train.py",
        "@kernels.one_blas_thread()\ndef train(",
        "def train(",
        ("tests/test_train.py::"
         "test_a_500_gene_checkpoint_does_not_depend_on_the_blas_thread_count",
         "tests/test_train.py::"
         "test_train_runs_on_one_blas_thread_and_restores_the_callers_count"),
    ),
    Mutant(
        "blas_pin_leaves_the_heap_policy_unset",
        "src/adadrug/kernels.py",
        "    global _pin_depth, _pin_saved\n    _keep_freed_heap()\n",
        "    global _pin_depth, _pin_saved\n",
        ("tests/test_train.py::test_a_warm_training_run_takes_no_new_pages",
         "tests/test_evaluate.py::test_scoring_in_a_process_that_never_trains_takes_no_new_pages"),
    ),
    Mutant(
        "blas_pin_keeps_one_thread_after_the_block",
        "src/adadrug/kernels.py",
        "put(_pin_saved)",
        "pass",
        ("tests/test_train.py::"
         "test_train_runs_on_one_blas_thread_and_restores_the_callers_count",),
    ),
    Mutant(
        "blas_pin_restored_while_another_block_is_open",
        "src/adadrug/kernels.py",
        "            if _pin_depth == 0:\n                put(_pin_saved)",
        "            put(_pin_saved)",
        ("tests/test_kernels.py::"
         "test_one_blas_thread_blocks_overlapping_across_threads_restore_the_count_once",),
    ),
    Mutant(
        "blas_pin_restores_nothing_when_the_block_raises",
        "src/adadrug/kernels.py",
        "    try:\n        yield\n    finally:",
        "    if True:\n        yield\n    if True:",
        ("tests/test_train.py::"
         "test_train_runs_on_one_blas_thread_and_restores_the_callers_count",),
    ),
    # -- target scoring ----------------------------------------------------
    Mutant(
        "scoring_blocks_end_in_a_short_tail",
        "src/adadrug/evaluate.py",
        "cuts = [n * i // blocks for i in range(blocks + 1)]\n"
        "    gap_buf = np.empty((-(-n // blocks), m, d))",
        "cuts = [min(n, chunk * i) for i in range(blocks + 1)]\n"
        "    gap_buf = np.empty((min(chunk, n), m, d))",
        ("tests/test_evaluate.py::test_one_reference_blocks_give_the_one_block_bits",),
    ),
    Mutant(
        "empty_source_reaches_the_block_division",
        "src/adadrug/evaluate.py",
        "        if expr.n_samples == 0:\n",
        "        if False:\n",
        tuple(f"tests/test_evaluate.py::"
              f"test_scoring_refuses_an_empty_source_before_encoding[{i}]" for i in (0, 1)),
    ),
    Mutant(
        "reference_rows_drawn_with_replacement",
        "src/adadrug/evaluate.py",
        "return rng.choice(n, size=ref_batch, replace=False)",
        "return rng.choice(n, size=ref_batch, replace=True)",
        ("tests/test_evaluate.py::test_reference_rows_are_distinct_and_the_seeded_draw",),
    ),
    Mutant(
        "reference_draw_from_another_seed",
        "src/adadrug/evaluate.py",
        "rng = np.random.default_rng(seed)",
        "rng = np.random.default_rng(seed + 1)",
        ("tests/test_evaluate.py::test_reference_rows_are_distinct_and_the_seeded_draw",),
    ),
    Mutant(
        "tie_group_rank_one_too_high",
        "src/adadrug/evaluate.py",
        "np.repeat(0.5 * (start + end - 1) + 1.0, end - start)",
        "np.repeat(0.5 * (start + end) + 1.0, end - start)",
        ("tests/test_evaluate.py::test_average_ranks_are_bitwise_the_tie_group_loop",
         "tests/test_evaluate.py::test_auroc_matches_pair_count_oracle_with_ties"),
    ),
    Mutant(
        "every_run_scored_weighted",
        "src/adadrug/evaluate.py",
        "return sources if cfg.awg_active else None",
        "return sources",
        ("tests/test_cli.py::test_only_a_run_whose_generator_trained_is_scored_weighted",
         *(f"tests/test_synth.py::"
           f"test_run_variant_weights_only_a_run_whose_generator_trained[{v}-False]"
           for v in ("baseline", "no_mda", "no_awg"))),
    ),
    # each caller must go through the one rule rather than pass its sources on
    Mutant(
        "cli_scores_every_run_weighted",
        "src/adadrug/cli.py",
        "ev.scoring_sources(cfg_train, sources),",
        "sources,",
        ("tests/test_cli.py::test_only_a_run_whose_generator_trained_is_scored_weighted",),
    ),
    Mutant(
        "synth_scores_every_run_weighted",
        "src/adadrug/synth.py",
        "sources=ev.scoring_sources(cfg, bundle.sources),",
        "sources=bundle.sources,",
        tuple(f"tests/test_synth.py::"
              f"test_run_variant_weights_only_a_run_whose_generator_trained[{v}-False]"
              for v in ("baseline", "no_mda", "no_awg")),
    ),
)
