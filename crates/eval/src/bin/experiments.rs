//! Run the full experiment suite (every table and figure) and print one
//! combined report. At `--scale smoke --seed 1` the report, minus its
//! timing (the `[elapsed …]` suffixes and the last line), is the golden
//! `tests/golden/experiments_smoke_seed1.txt` that `tests/paper_golden.rs`
//! and CI assert byte-for-byte — so keep timing out of the section bodies.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ganc_eval::parse_cli(&args);
    let t0 = std::time::Instant::now();
    let section = |name: &str, body: String| {
        println!("================================================================");
        println!("{name}  [elapsed {:.0?}]", t0.elapsed());
        println!("================================================================");
        println!("{body}");
    };
    section("Table II", ganc_eval::table2::run(&cfg));
    section("Figure 1", ganc_eval::fig1::run(&cfg));
    section("Figure 2", ganc_eval::fig2::run(&cfg));
    section("Figure 3", ganc_eval::fig3_4::run(&cfg, "ml-1m"));
    section("Figure 4", ganc_eval::fig3_4::run(&cfg, "mt-200k"));
    section("Figure 5", ganc_eval::fig5::run(&cfg));
    section("Table IV", ganc_eval::table4::run(&cfg));
    section("Figure 6", ganc_eval::fig6::run(&cfg));
    section("Table V", ganc_eval::table5::run(&cfg));
    section("Figure 7", ganc_eval::fig7_8::run(&cfg, "ml-100k"));
    section("Figure 8", ganc_eval::fig7_8::run(&cfg, "ml-1m"));
    println!("total wall time: {:.1?}", t0.elapsed());
}
