//! Reference implementations the integration tests check the runtime
//! against.

pub mod kv_oracle;
