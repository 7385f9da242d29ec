#pragma once

// Generic string-keyed component registry -- the backbone of the epismc::api
// facade.
//
// Every pluggable piece of the calibration pipeline (simulator backend,
// window likelihood, reporting-bias model, jitter policy, scenario preset)
// is published under a stable string name so that examples, benches, CLI
// flags and config files all select components the same way, and adding a
// backend means registering one factory instead of editing an if/else
// chain at every call site.
//
// A Registry<Product, MakeArgs...> maps name -> factory(MakeArgs...) ->
// Product. Product is typically std::unique_ptr<Interface> for polymorphic
// components and a plain value type for presets. Built-ins are registered
// lazily inside the accessor functions (api/components.cpp,
// api/scenarios.cpp), which sidesteps the static-initialization-order and
// dead-code-stripping hazards of self-registering translation units in
// static libraries; user code may add further factories at startup through
// the same accessors.
//
// Thread-safety: registration must happen before concurrent use (startup);
// lookups and create() are const and safe to call concurrently -- the
// ScenarioSweep runner does exactly that from its parallel cell loop.

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace epismc::api {

/// Thrown by Registry::create for a name nobody registered. The message
/// lists the known names so a CLI typo is self-diagnosing.
class UnknownComponentError : public std::invalid_argument {
 public:
  UnknownComponentError(const std::string& kind, const std::string& name,
                        const std::vector<std::string>& known)
      : std::invalid_argument(format(kind, name, known)) {}

 private:
  static std::string format(const std::string& kind, const std::string& name,
                            const std::vector<std::string>& known) {
    std::string msg = kind + ": unknown name '" + name + "' (registered: ";
    for (std::size_t i = 0; i < known.size(); ++i) {
      msg += (i ? ", " : "") + known[i];
    }
    return msg + ")";
  }
};

template <typename Product, typename... MakeArgs>
class Registry {
 public:
  using Factory = std::function<Product(MakeArgs...)>;

  /// `kind` is a human-readable label used in error messages
  /// (e.g. "simulator registry").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Publish `factory` under `name`. Throws on duplicate names: silently
  /// replacing a component is how two libraries end up disagreeing about
  /// what "gaussian-sqrt" means.
  Registry& add(const std::string& name, Factory factory) {
    if (!factory) {
      throw std::invalid_argument(kind_ + ": null factory for '" + name + "'");
    }
    const auto [it, inserted] = factories_.emplace(name, std::move(factory));
    (void)it;
    if (!inserted) {
      throw std::invalid_argument(kind_ + ": '" + name +
                                  "' is already registered");
    }
    return *this;
  }

  /// Re-publish an existing factory under a second name.
  Registry& alias(const std::string& name, const std::string& target) {
    const auto it = factories_.find(target);
    if (it == factories_.end()) {
      throw UnknownComponentError(kind_, target, names());
    }
    return add(name, it->second);
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return factories_.find(name) != factories_.end();
  }

  /// Build the component registered under `name`; UnknownComponentError if
  /// absent. Parameter errors (e.g. sigma <= 0) propagate from the factory.
  [[nodiscard]] Product create(const std::string& name,
                               MakeArgs... args) const {
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      throw UnknownComponentError(kind_, name, names());
    }
    return it->second(std::forward<MakeArgs>(args)...);
  }

  /// Registered names in sorted order (std::map iteration order).
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return factories_.size(); }
  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }

 private:
  std::string kind_;
  std::map<std::string, Factory> factories_;
};

}  // namespace epismc::api
