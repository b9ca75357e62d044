//! Helpers shared by the golden tests.

// each test crate that includes this module uses part of it
#![allow(dead_code)]

use harl_repro::gbt::{CostModel, Dataset, Gbt, GbtParams};
use harl_repro::nnet::PpoAgent;
use serde::ser::JsonWriter;
use serde::Serialize;

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

/// A PPO agent that serializes as checkpoint versions 3 to 6 spelled it:
/// the networks, the config, then the replay buffer as a list of
/// transitions, oldest first, each with its masks, then the update count.
/// Rebuilt from [`ReplayBuffer::get`](harl_repro::nnet::ReplayBuffer::get),
/// which gives one full mask per head: exact for every agent whose rows
/// were all recorded with one full mask per head, as the searchers record
/// them.
pub struct V6Agent<'a>(pub &'a PpoAgent);

impl Serialize for V6Agent<'_> {
    fn serialize(&self, w: &mut JsonWriter) {
        let agent = self.0;
        let hex = |values: &[f32]| -> String {
            let bytes = values.iter().flat_map(|v| v.to_bits().to_le_bytes());
            bytes.map(|b| format!("{b:02x}")).collect()
        };
        let rows: Vec<String> = (0..agent.buffer.len())
            .map(|i| {
                let t = agent.buffer.get(i);
                let masks: Vec<String> = (t.masks.iter())
                    .map(|m| m.iter().map(|&v| if v { '1' } else { '0' }).collect())
                    .collect();
                format!(
                    "{{\"state\":\"{}\",\"actions\":{},\"logp\":\"{}\",\"reward\":\"{}\",\
                     \"advantage\":\"{}\",\"value_target\":\"{}\",\"masks\":{}}}",
                    hex(&t.state),
                    serde_json::to_string(&t.actions).unwrap(),
                    hex(&[t.logp]),
                    hex(&[t.reward]),
                    hex(&[t.advantage]),
                    hex(&[t.value_target]),
                    serde_json::to_string(&masks).unwrap(),
                )
            })
            .collect();
        let text = format!(
            "{{\"policy\":{},\"critic\":{},\"cfg\":{},\"buffer\":{{\"items\":[{}],\"cap\":{}}},\
             \"updates\":{}}}",
            serde_json::to_string(&agent.policy).unwrap(),
            serde_json::to_string(&agent.critic).unwrap(),
            serde_json::to_string(&agent.cfg).unwrap(),
            rows.join(","),
            agent.cfg.buffer_capacity,
            agent.num_updates(),
        );
        w.raw(|out| out.push_str(&text));
    }
}
