//! Helpers shared by the golden tests.

use harl_repro::gbt::{CostModel, Dataset, Gbt, GbtParams};

/// The fields a cost model serializes (checkpoint version 6).
#[derive(serde::Deserialize)]
struct Fields {
    params: GbtParams,
    data: Dataset,
    scale: f64,
}

/// `model` as checkpoint versions 3 to 5 spelled it, rebuilt from its
/// serialized fields: the booster refitted to the data between `data` and
/// `scale`, then the retrain interval and counter, then the score floor.
/// Every fit of those versions left the counter at 0, and every
/// serialized model had been fitted after its last row.
pub fn v5_cost_model_text(model: &CostModel) -> String {
    let text = serde_json::to_string(model).unwrap();
    let Fields {
        params,
        data,
        scale,
    } = serde_json::from_str(&text).unwrap();
    let booster = (!data.is_empty()).then(|| {
        let divisor = if scale > 0.0 { scale } else { 1.0 };
        let targets: Vec<f64> = data.targets().iter().map(|&y| y / divisor).collect();
        Gbt::fit(data.features(), &targets, params.clone())
    });
    format!(
        "{{\"params\":{},\"data\":{},\"model\":{},\"scale\":{},\
         \"retrain_every\":32,\"since_train\":0,\"floor\":0.001}}",
        serde_json::to_string(&params).unwrap(),
        serde_json::to_string(&data).unwrap(),
        serde_json::to_string(&booster).unwrap(),
        serde_json::to_string(&scale).unwrap(),
    )
}
