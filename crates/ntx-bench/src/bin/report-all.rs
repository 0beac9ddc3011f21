//! Prints every reproduced table and figure in paper order.
fn main() {
    let t1 = ntx_bench::table1_report();
    println!("{}", ntx_bench::format::table1(&t1));
    let rows = ntx_model::table2::this_work_rows(&ntx_dnn::TrainingModel::default());
    let paper = [22.5, 29.3, 36.7, 35.9, 47.5, 60.4, 70.6, 76.0, 78.7];
    println!(
        "{}",
        ntx_bench::format::table2(
            &rows,
            &ntx_model::compare::accelerators(),
            &ntx_model::compare::gpus(),
            &paper
        )
    );
    let points = ntx_bench::fig5_points();
    println!(
        "{}",
        ntx_bench::format::fig5(&points, &ntx_model::roofline::Roofline::default())
    );
    println!(
        "{}",
        ntx_bench::format::fig6(&ntx_model::compare::figure6(
            &ntx_dnn::TrainingModel::default()
        ))
    );
    println!(
        "{}",
        ntx_bench::format::fig7(&ntx_model::compare::figure7())
    );
    println!(
        "{}",
        ntx_bench::format::precision(&ntx_bench::precision_experiment())
    );
    println!(
        "{}",
        ntx_bench::format::greenwave(&ntx_bench::greenwave_rows())
    );
    println!(
        "{}",
        ntx_bench::format::scaling(&ntx_bench::scaling_report())
    );
    let hmc = ntx_bench::format::hmc_json(&ntx_bench::hmc_report());
    let title = "Shared HMC — weak-scaling saturation under the vault/LoB budget";
    println!("{}", ntx_bench::format::text(title, &hmc));
    let mesh = ntx_bench::format::mesh_json(&ntx_bench::mesh_report());
    let title = "HMC mesh — weak scaling over cubes, data-affine vs naive placement";
    println!("{}", ntx_bench::format::text(title, &mesh));
    let chaos = ntx_bench::format::chaos_json(&ntx_bench::chaos_report());
    let title = "Chaos serving — fault injection, recovery, overload control";
    print!("{}", ntx_bench::format::text(title, &chaos));
}
